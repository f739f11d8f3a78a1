import json
import math
import os
import re
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from polarispec.cli import (
    ConfigError,
    MethodSpec,
    OutputSpec,
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
from polarispec import cli, core, fileio, susceptibility


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

    def test_disordered_model_has_no_omega_exc(self):
        # the line sits at disorder.center; an omega_exc key would do nothing
        cfg = preset_config("fig3a")
        cfg["model"]["omega_exc"] = 2.0
        with pytest.raises(ConfigError, match=r"^model\.omega_exc: unknown key$"):
            parse_scenario(cfg)

    @pytest.mark.parametrize("gamma_mode", [0.0, math.nan, math.inf])
    def test_gamma_mode_checked_when_parsed(self, gamma_mode):
        cfg = preset_config("fig2a")
        cfg["method"] = {"kind": "finite_n", "n_modes": 8, "gamma_mode": gamma_mode}
        with pytest.raises(ConfigError, match=r"^method: gamma_mode must be > 0$"):
            parse_scenario(cfg)

    @pytest.mark.parametrize(
        "cls, args, message",
        [
            pytest.param(MethodSpec, ("finite_n",), "n_modes", id="finite_n-without-n_modes"),
            *(pytest.param(MethodSpec, ("finite_n", n), r"^n_modes must be an integer in \[1, ",
                           id=f"finite_n-with-n_modes-{n}") for n in (0, -3, 2.5)),
            pytest.param(MethodSpec, ("bogus", 16), "unknown method kind", id="unknown-kind"),
            pytest.param(MethodSpec, ("harmonic", 16), "harmonic", id="harmonic-with-n_modes"),
            pytest.param(MethodSpec, ("harmonic", None, 0.1), "harmonic",
                         id="harmonic-with-gamma_mode"),
            pytest.param(OutputSpec, (), "needs a csv or svg path", id="output-without-path"),
            pytest.param(OutputSpec, ("",), "needs a csv or svg path", id="output-empty-path"),
        ],
    )
    def test_method_and_output_check_themselves(self, cls, args, message):
        with pytest.raises(ValidationError, match=message):
            cls(*args)

    @pytest.mark.parametrize(
        "method, message",
        [
            pytest.param({"kind": "harmonic", "n_modes": 8},
                         "method: a harmonic method takes no n_modes or gamma_mode",
                         id="harmonic-with-n_modes"),
            pytest.param({"kind": "harmonic", "gamma_mode": 0.1},
                         "method: a harmonic method takes no n_modes or gamma_mode",
                         id="harmonic-with-gamma_mode"),
            pytest.param({"kind": "bogus", "n_modes": 8}, "method: unknown method kind 'bogus'",
                         id="unknown-kind"),
            pytest.param("bogus", "method: unknown method kind 'bogus'", id="unknown-string"),
            pytest.param("finite_n", "method: finite_n needs n_modes", id="finite_n-string"),
            pytest.param(["harmonic"], "method: expected an object", id="list"),
        ],
    )
    def test_method_rules_hold_in_the_config(self, method, message):
        cfg = preset_config("fig2a")
        cfg["method"] = method
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_scenario(cfg)

    def test_harmonic_method_object_is_the_shorthand(self):
        cfg = preset_config("fig2a")
        cfg["method"] = {"kind": "harmonic"}
        s = parse_scenario(cfg)
        assert s == parse_scenario(preset_config("fig2a"))
        assert scenario_to_config(s)["method"] == "harmonic"

    def test_foreign_model_object_is_not_serialized(self):
        s = parse_scenario(preset_config("fig2a"))
        foreign = Scenario(s.cavity, object(), s.grid, s.method)
        with pytest.raises(ValidationError, match="^unknown model object object$"):
            scenario_to_config(foreign)
        with pytest.raises(ValidationError, match="^unknown model object object$"):
            model_susceptibility(foreign.model, s.grid)

    def test_sweep_parameter_must_resolve(self):
        cfg = preset_config("fig2b")
        cfg["parameter"] = "model.nonsense"
        with pytest.raises(ConfigError, match="does not resolve"):
            parse_sweep(cfg)


class TestRunScenario:
    def test_fig2a_peaks(self, tmp_path):
        s = parse_scenario(preset_config("fig2a"))
        out = str(tmp_path / "fig2a.csv")
        tra = run_scenario(replace(s, outputs=(OutputSpec(out),)))
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
        run_scenario(replace(s, outputs=(OutputSpec(p1),)))
        run_scenario(replace(s, outputs=(OutputSpec(p2),)))
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


def _numeric_keys(d, path=()):
    """Key paths (tuples) of the numbers in a config object, nested objects included."""
    for key, v in d.items():
        if isinstance(v, dict):
            yield from _numeric_keys(v, (*path, key))
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield (*path, key)


def _model_keys():
    """(preset, key path) for each numeric model key of each preset with chi != 0."""
    params = []
    for name in preset_names():
        cfg = preset_config(name)
        s = parse_scenario(cfg.get("base", cfg))
        if not s.model.chi(s.grid).values.any():
            continue  # empty_cavity, and fig5c whose saturated lines cancel exactly
        params += [pytest.param(name, key, id=f"{name}-{'.'.join(key)}")
                   for key in _numeric_keys(cfg.get("base", cfg)["model"])]
    return params


class TestEveryModelKeyMatters:
    @pytest.mark.parametrize("preset, key", _model_keys())
    def test_changing_the_key_changes_chi(self, preset, key):
        cfg = preset_config(preset)
        cfg = cfg.get("base", cfg)
        cfg["grid"]["n_points"] = 401
        before = parse_scenario(cfg)
        *parents, last = key
        section = cfg["model"]
        for k in parents:
            section = section[k]
        section[last] += 1e-3 * (1.0 + abs(section[last]))
        after = parse_scenario(cfg)
        assert not np.array_equal(after.model.chi(after.grid).values,
                                  before.model.chi(before.grid).values)


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

    @pytest.mark.parametrize(
        "parameter, values, message",
        [
            pytest.param("model.beta", ["inf", 1.0, -1.0],
                         "sweep.values[2]: model: beta must be >= 0", id="beta"),
            pytest.param("method.gamma_mode", [0.2, -1.0],
                         "sweep.values[1]: method: gamma_mode must be > 0", id="gamma_mode"),
        ],
    )
    def test_invalid_value_fails_before_any_output(self, tmp_path, capsys, parameter, values,
                                                   message):
        cfg = preset_config("fig2b")
        cfg["base"]["grid"]["n_points"] = 501
        cfg["base"]["method"] = {"kind": "finite_n", "n_modes": 16, "gamma_mode": 0.2}
        cfg["parameter"], cfg["values"] = parameter, values
        outdir = tmp_path / "out"
        argv = ["sweep", "--config", _write_config(tmp_path, cfg), "--outdir", str(outdir)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()

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

    def test_sweep_over_a_tabulated_base(self, tmp_path, reads):
        base = self._tabulated_config(tmp_path, "harmonic")
        sweep = {"base": base, "parameter": "cavity.kappa_L", "values": [0.04, 0.05, 0.06]}
        run_sweep(parse_sweep(sweep), str(tmp_path / "sweep"))
        assert len(reads) == 1

    def test_table_is_read_and_checked_when_parsed(self, tmp_path, reads):
        cfg = self._tabulated_config(tmp_path, "harmonic")
        s = parse_scenario(cfg)
        assert len(reads) == 1
        assert scenario_to_config(s)["model"] == {"kind": "tabulated_chi", "path": cfg["model"]["path"]}
        with open(cfg["model"]["path"], "a") as fh:
            fh.write("9.0,1.0\n")
        with pytest.raises(ValidationError, match="^[^:]*chi.csv: "):
            parse_scenario(cfg)
        cfg["model"]["path"] = str(tmp_path / "missing.csv")
        with pytest.raises(FileNotFoundError):
            parse_scenario(cfg)


class TestModelChiLookup:
    """Models reach the chi formulas through module attributes, at call time."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(("chi_disordered", "chi_multilevel"), 0)
        for name in counts:

            def counting(*args, _name=name, _fn=getattr(susceptibility, name)):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(susceptibility, name, counting)
        return counts

    @pytest.mark.parametrize(
        "name, formula",
        [("fig2a", "chi_multilevel"), ("fig3a", "chi_disordered"), ("fig4", "chi_multilevel")],
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
        assert calls["chi_multilevel"] >= 2  # the model and the surrogate bath

    def test_moved_models_still_import_from_cli(self):
        assert cli.DisorderedTls is susceptibility.DisorderedTls
        assert cli.TabulatedChi is susceptibility.TabulatedChi


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

    def test_out_and_svg_append_to_the_config_outputs(self, tmp_path, capsys, monkeypatch):
        written = []

        def recording(write):
            def record(path, tra):
                written.append(path)
                write(path, tra)
            return record

        for name in ("write_tra_csv", "write_tra_svg"):
            monkeypatch.setattr(fileio, name, recording(getattr(fileio, name)))
        a, b, c, d, e = (str(tmp_path / n) for n in ("a.csv", "b.svg", "c.csv", "d.csv", "e.svg"))
        cfg = preset_config("fig2a")
        cfg["outputs"] = [{"csv": a, "svg": b}, {"csv": c}]
        argv = ["spectrum", "--config", _write_config(tmp_path, cfg), "--points", "401",
                "--out", d, "--svg", e]
        assert main(argv) == 0
        assert written == [a, b, c, d, e]  # each once, in list order, the flags' entry last
        assert capsys.readouterr().out.splitlines()[0] == "wrote: " + " ".join(written)
        assert all(os.path.getsize(path) > 0 for path in written)

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
        # a tabulated gain pole: Im chi(omega_ph) = -kappa/2, so den = 0 at w = 0
        chi_path = tmp_path / "gain.csv"
        chi_path.write_text("omega,re_chi,im_chi\n-1,0,-0.05\n0,0,-0.05\n1,0,-0.05\n")
        cfg = preset_config("empty_cavity")
        cfg["cavity"] = {"omega_ph": 0.0, "kappa_L": 0.05, "kappa_R": 0.05}
        cfg["model"] = {"kind": "tabulated_chi", "path": str(chi_path)}
        cfg["grid"] = {"omega_min": -1.0, "omega_max": 1.0, "n_points": 3}
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: photon propagator denominator vanishes")

    def test_tiny_passive_cavity_runs(self, tmp_path, capsys):
        cfg = preset_config("empty_cavity")
        cfg["cavity"] = {"omega_ph": 0.0, "kappa_L": 1e-16, "kappa_R": 1e-16}
        cfg["grid"] = {"omega_min": -1.0, "omega_max": 1.0, "n_points": 3}
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 0
        assert capsys.readouterr().out == "transmission maxima: 1 at +0\n"

    def test_bad_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["spectrum", "--config", str(path)]) == 2

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 4

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "no" / "such" / "dir" / "out.csv")
        assert main(["spectrum", "--preset", "fig2a", "--out", out]) == 4

    def test_bundle_of_a_missing_chi_table_leaves_no_outdir(self, tmp_path, capsys):
        cfg = preset_config("fig2a")
        cfg["model"] = {"kind": "tabulated_chi", "path": str(tmp_path / "missing.csv")}
        outdir = tmp_path / "d"
        assert main(["bundle", "--config", _write_config(tmp_path, cfg), "--outdir", str(outdir)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")
        assert not outdir.exists()

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
            pytest.param("fig2a", "grid.n_points", 2**63,
                         "grid: n_points must be an integer in [2, ", id="n_points-2**63"),
            pytest.param("fig2a", "grid.n_points", 10**30,
                         "grid: n_points must be an integer in [2, ", id="n_points-10**30"),
            pytest.param("fig2a", "method", {"kind": "finite_n", "n_modes": 10**30},
                         "method: n_modes must be an integer in [1, ", id="n_modes"),
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

    def test_m_max_beyond_any_progression_runs(self, tmp_path, capsys):
        # the progression stops where its weights underflow, whatever m_max says
        cfg = preset_config("fig4")
        cfg["model"]["m_max"] = 10**30
        assert parse_scenario(cfg).model.m_max == 10**30
        argv = ["spectrum", "--config", _write_config(tmp_path, cfg), "--points", "401"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "no outputs configured; use --out/--svg or an outputs list\n"
        assert captured.out.startswith("transmission maxima: ")

    @pytest.mark.parametrize(
        "preset, model, message",
        [
            pytest.param("fig2a", {"g": 1e200}, "n_emitters * g**2", id="tls"),
            pytest.param("fig2a", {"n_emitters": 1e300, "g": 1e10}, "n_emitters * g**2",
                         id="tls-n_emitters"),
            pytest.param("fig3a", {"g": 1e200}, "n_emitters * g**2", id="disordered_tls"),
            pytest.param("fig4", {"g": 1e200}, "n_emitters * g**2", id="vibronic"),
            pytest.param("fig5a", {"dipoles": [[1, 2, 1.0], [2, 3, 1e200], [1, 3, 1.0]]},
                         "n_emitters * g_scale**2 * amplitude**2", id="multilevel"),
        ],
    )
    def test_coupling_beyond_float_range_is_one_error_line(self, tmp_path, capsys, preset,
                                                           model, message):
        cfg = preset_config(preset)
        cfg["model"].update(model)
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"error: model: {message} must be finite\n"

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

    def test_empty_output_path_is_one_error_line(self, tmp_path, capsys):
        cfg = preset_config("fig2a")
        cfg["outputs"] = [{"csv": ""}]
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: outputs[0]: needs a csv or svg path\n"

    def test_four_level_ladder_runs_and_a_high_low_dipole_is_refused(self, tmp_path, capsys):
        cfg = preset_config("fig5a")
        cfg["model"]["levels"] = [[0.0, 0.5], [1.0, 0.3], [2.5, 0.15], [4.0, 0.05]]
        cfg["model"]["dipoles"] = [[1, 2, 1.0], [2, 3, 0.5], [3, 4, 0.8]]
        argv = ["spectrum", "--config", _write_config(tmp_path, cfg), "--points", "401"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("transmission maxima: ")
        cfg["model"]["dipoles"][1] = [3, 2, 0.5]
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: model: dipole (3,2) must go from a lower to a higher level\n"
        )


def _edited(preset, edit):
    cfg = preset_config(preset)
    edit(cfg)
    return cfg


def _populations_sweep(values):
    return {"base": preset_config("fig5a"), "parameter": "model.populations", "values": values}


class TestConfigRefusals:
    """Each refusal of a configuration is exit 2 with one exact ``error:`` line."""

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            pytest.param("spectrum", _edited("fig2a", lambda c: c.update(model=5)),
                         "model: expected an object", id="model-not-an-object"),
            pytest.param("spectrum", _edited("fig2a", lambda c: c["model"].pop("kind")),
                         "model.kind: missing required key", id="model-kind-missing"),
            pytest.param("spectrum", _edited("fig2a", lambda c: c["model"].update(kind="qubit")),
                         "model.kind: unknown model kind 'qubit'", id="model-kind-unknown"),
            pytest.param("spectrum", _edited("fig2a", lambda c: c.update(outputs={"csv": "x"})),
                         "outputs: expected a list", id="outputs-not-a-list"),
            pytest.param("sweep", _edited("fig2b", lambda c: c.update(parameter="")),
                         "sweep.parameter: expected a dotted path string", id="parameter-empty"),
            pytest.param("sweep", _edited("fig2b", lambda c: c.update(parameter=["model"])),
                         "sweep.parameter: expected a dotted path string",
                         id="parameter-not-a-string"),
            pytest.param("sweep", _edited("fig2b", lambda c: c.update(values=[])),
                         "sweep.values: expected a nonempty list", id="values-empty"),
            pytest.param("sweep", _edited("fig2b", lambda c: c.update(values="inf")),
                         "sweep.values: expected a nonempty list", id="values-not-a-list"),
            pytest.param("sweep", _edited("fig2b", lambda c: c.update(
                parameter="model.populations", values=[[1.0, 0.0]])),
                         "sweep.parameter: model.populations needs a multilevel model",
                         id="populations-of-a-tls"),
            pytest.param("sweep", _populations_sweep([[0.7, 0.2, 0.1], [0.5, 0.5]]),
                         "sweep.values: each populations value needs one entry per level",
                         id="populations-too-short"),
            pytest.param("sweep", _populations_sweep([0.5]),
                         "sweep.values: each populations value needs one entry per level",
                         id="populations-not-a-list"),
            pytest.param("sweep", preset_config("fig2a"),
                         "sweep configuration needs top-level keys base/parameter/values",
                         id="sweep-of-a-scenario"),
            pytest.param("bundle", preset_config("fig2b"),
                         "bundle takes a scenario, not a sweep", id="bundle-of-a-sweep"),
        ],
    )
    def test_refused_config(self, tmp_path, capsys, command, cfg, message):
        outdir = tmp_path / "out"
        argv = [command, "--config", _write_config(tmp_path, cfg)]
        assert main(argv if command == "spectrum" else argv + ["--outdir", str(outdir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "command, preset, message",
        [
            pytest.param("sweep", "fig2b",
                         "sweep.base.outputs: a sweep writes to its outdir, not to outputs",
                         id="sweep"),
            pytest.param("bundle", "fig2a",
                         "outputs: a bundle writes to its outdir, not to outputs", id="bundle"),
        ],
    )
    def test_outdir_command_refuses_outputs(self, tmp_path, capsys, command, preset, message):
        cfg = preset_config(preset)
        cfg.get("base", cfg)["outputs"] = [{"csv": str(tmp_path / "x.csv"),
                                            "svg": str(tmp_path / "x.svg")}]
        argv = [command, "--config", _write_config(tmp_path, cfg),
                "--outdir", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command", ["spectrum", "sweep"])
    def test_neither_config_nor_preset(self, capsys, command):
        assert main([command]) == 2
        assert capsys.readouterr().err == "error: one of --config or --preset is required\n"

    @pytest.mark.parametrize("document", [[1, 2], "fig2a", 5, None])
    def test_top_level_that_is_not_an_object(self, tmp_path, capsys, document):
        path = _write_config(tmp_path, document)
        assert main(["spectrum", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: top level must be an object\n"

    def test_bundle_on_a_grid_without_two_positive_frequencies(self, tmp_path, capsys):
        cfg = preset_config("fig2a")
        cfg["grid"] = {"omega_min": -4.0, "omega_max": 0.004, "n_points": 1001}
        argv = ["bundle", "--config", _write_config(tmp_path, cfg), "--outdir", str(tmp_path)]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "note: beta_eff.csv omitted (grid has fewer than two positive frequencies)\n"
        )
        assert not (tmp_path / "beta_eff.csv").exists()
        assert (tmp_path / "spectra.csv").exists()


# exponents printed with two and with three digits, inside the formatter's table,
# none in [-7, 15], where a float with 17 - E bits after the point is an exact
# tie at the 17th digit (which ``_FMT %`` must round); mantissas in [1.01, 9.99]
# keep the values away from the powers of ten, where log10 may round across one
_EXPONENTS = {2: st.one_of(st.integers(-98, -8), st.integers(16, 98)),
              3: st.one_of(st.integers(-278, -101), st.integers(101, 278))}
# each one needs ``_FMT %``: not finite, outside the table, a tie or a near-tie
_BREAKING_VALUES = [math.nan, math.inf, 5e-324, 1e-300, 2251799813685247.75, 6.949401332094608e-275]


@st.composite
def _uniform_columns(draw, min_rows=1, max_rows=24):
    """Columns and their (negative, exponent width) layouts: one sign and one
    exponent width per column, with +-0.0 in two-digit columns."""
    n = draw(st.integers(min_rows, max_rows))
    cols, layouts = [], []
    for _ in range(draw(st.integers(1, 4))):
        negative, width = draw(st.booleans()), draw(st.sampled_from([2, 3]))
        mantissa = st.floats(1.01, 9.99)
        if width == 2:
            mantissa = st.one_of(st.just(0.0), mantissa)
        m = draw(hnp.arrays(float, n, elements=mantissa))
        col = m * 10.0 ** draw(hnp.arrays(float, n, elements=_EXPONENTS[width]))
        cols.append(-col if negative else col)
        layouts.append((negative, width))
    return cols, layouts


class TestCsvFormats:
    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(ValidationError, match="^all columns must have equal length$"):
            fileio.write_columns(str(path), "a,b", [np.ones(3), np.ones(2)])
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "columns",
        [pytest.param([], id="no-columns"), pytest.param([np.ones(4), np.ones((2, 2))], id="2-d")],
    )
    def test_malformed_columns_are_refused_before_the_file_opens(self, tmp_path, columns):
        path = tmp_path / "table.csv"
        with pytest.raises(ValidationError, match="^columns must be one or more 1-D arrays$"):
            fileio.write_columns(str(path), "h", columns)
        assert os.listdir(tmp_path) == []

    def test_chi_table_with_two_columns_is_refused(self, tmp_path, capsys):
        path = tmp_path / "chi.csv"
        path.write_text("omega,re_chi,im_chi\n0.0,1.0\n1.0,1.0\n2.0,1.0\n")
        message = f"{path}: expected 3 columns, got 2"
        with pytest.raises(ValidationError) as info:
            fileio.read_chi_csv(str(path))
        assert str(info.value) == message
        cfg = preset_config("empty_cavity")
        cfg["model"]["path"] = str(path)
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_chi_header_validated(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("omega,re,im\n0.0,1.0,2.0\n")
        with pytest.raises(Exception, match="header"):
            fileio.read_chi_csv(str(path))

    def test_chi_round_trip_exact(self, tmp_path):
        from polarispec.susceptibility import TlsEnsemble

        g = make_grid(-2, 2, 101)
        chi = TlsEnsemble(1.0, 1.0, 0.0, math.inf, 0.3).chi(g)
        path = str(tmp_path / "chi.csv")
        fileio.write_chi_csv(path, chi)
        back = fileio.read_chi_csv(path)
        assert back.grid == chi.grid
        assert np.array_equal(back.values, chi.values)

    def test_c2_round_trip_exact(self, tmp_path):
        from polarispec.bathmap import (
            effective_temperature,
            reconstruct_correlation,
            spectral_density_from_chi,
        )
        from polarispec.core import TimeGrid
        from polarispec.susceptibility import TlsEnsemble

        g = make_grid(0.05, 8.0, 401)
        m = TlsEnsemble(1.0, 1.0, 2.0, 1.5, 0.3)
        J = spectral_density_from_chi(m.chi(g))
        c2 = reconstruct_correlation(J, effective_temperature(m.transitions(), g),
                                     TimeGrid(30.0, 301))
        path = str(tmp_path / "c2.csv")
        fileio.write_c2_csv(path, c2)
        with open(path) as fh:
            assert fh.readline() == "t,re_c2,im_c2\n"
        t, re_c2, im_c2 = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        assert t.tobytes() == c2.grid.times.tobytes()
        assert re_c2.tobytes() == c2.values.real.tobytes()
        assert im_c2.tobytes() == c2.values.imag.tobytes()

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "chi.csv"
        path.write_text("omega,re_chi,im_chi\n0.0,1.0,0.0\n1.0,1.0,0.0\n3.0,1.0,0.0\n")
        with pytest.raises(Exception, match="uniform"):
            fileio.read_chi_csv(str(path))

    @pytest.mark.parametrize(
        "omegas", [(0.0, "nan", 2.0), ("nan", 1.0, 2.0), (0.0, 1.0, "inf"), ("-inf", 0.0)],
        ids=["interior-nan", "first-nan", "last-inf", "first-inf"],
    )
    def test_non_finite_frequency_rejected(self, tmp_path, capsys, omegas):
        # nan <= 0 and nan > tol are both False: the spacing test alone passes a nan cell
        path = tmp_path / "chi.csv"
        path.write_text("omega,re_chi,im_chi\n" + "".join(f"{w},1.0,0.0\n" for w in omegas))
        with pytest.raises(ValidationError, match="frequency column must be finite"):
            fileio.read_chi_csv(str(path))
        cfg = preset_config("empty_cavity")
        cfg["model"]["path"] = str(path)
        assert main(["spectrum", "--config", _write_config(tmp_path, cfg)]) == 2
        assert f"error: {path}: frequency column must be finite" in capsys.readouterr().err

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
        block = 8  # rows per block
        monkeypatch.setattr(core, "_BLOCK", block * n_cols)
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
        monkeypatch.setattr(core, "_BLOCK", 8)  # 4 rows of 2 fields per block
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

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_outputs_get_the_mode_open_would_give(self, tmp_path, umask):
        grid = make_grid(-1.0, 1.0, 5)
        tra = TraSpectra(*(RealSpectrum(grid, np.full(5, v)) for v in (0.5, 0.25, 0.25)))
        old = tmp_path / "old.csv"
        old.write_text("old\n")
        os.chmod(old, 0o640)  # neither umask's default
        previous = os.umask(umask)
        try:
            open(tmp_path / "plain.txt", "w").close()
            fileio.write_tra_csv(str(tmp_path / "new.csv"), tra)
            fileio.write_tra_svg(str(tmp_path / "new.svg"), tra)
            fileio.write_tra_csv(str(old), tra)
        finally:
            os.umask(previous)
        modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
        assert modes == {"plain.txt": 0o666 & ~umask, "new.csv": 0o666 & ~umask,
                         "new.svg": 0o666 & ~umask, "old.csv": 0o640}

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

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(table=_uniform_columns())
    def test_uniform_block_matches_per_field_format(self, tmp_path_factory, table):
        cols, _ = table
        path = tmp_path_factory.getbasetemp() / "uniform.csv"
        with mock.patch.object(fileio, "_uniform_rows", wraps=fileio._uniform_rows) as spy:
            fileio.write_columns(str(path), "h", cols)
        assert spy.call_count == 1  # the one block took the strided copies
        assert path.read_bytes() == self._fmt_rows("h", cols)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data(), rows=st.integers(3, 6),
           where=st.sampled_from(["first", "inside", "last"]),
           breaker=st.sampled_from(["sign", "width", *_BREAKING_VALUES]))
    def test_one_breaking_row_sends_its_block_to_compaction(
        self, tmp_path_factory, data, rows, where, breaker
    ):
        cols, layouts = data.draw(_uniform_columns(min_rows=rows, max_rows=3 * rows))
        full = len(cols[0]) // rows  # blocks of all ``rows`` rows
        start = rows * data.draw(st.integers(0, full - 1))
        i = {"first": start, "inside": start + rows // 2, "last": start + rows - 1}[where]
        c = data.draw(st.integers(0, len(cols) - 1))
        negative, width = layouts[c]
        if breaker == "sign":
            cols[c][i] = -cols[c][i]
        else:
            value = (5.5e150 if width == 2 else 5.5e50) if breaker == "width" else breaker
            cols[c][i] = -value if negative else value
        path = tmp_path_factory.getbasetemp() / "broken.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK", rows * len(cols))
            with mock.patch.object(fileio, "_uniform_rows", wraps=fileio._uniform_rows) as spy:
                fileio.write_columns(str(path), "h", cols)
        assert spy.call_count == -(-len(cols[0]) // rows) - 1
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

    # blocks of 1 row, of 8 rows, and one block of all 29 rows
    @pytest.mark.parametrize("block", [5, 24, 1 << 13])
    def test_fallback_and_formatted_fields_share_rows(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(core, "_BLOCK", block)
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
        from polarispec.susceptibility import TlsEnsemble

        table = TlsEnsemble(1.0, 1.0, 0.5, math.inf, 0.3).chi(make_grid(-5, 5, 1601))
        path = str(tmp_path / "chi.csv")
        fileio.write_chi_csv(path, table)
        return susceptibility.TabulatedChi(path), fileio.read_chi_csv(path)

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
