"""Declarative scenario runner and the ``polarispec`` command.

A scenario is one JSON document::

    {
      "cavity":  {"omega_ph": 0.0, "kappa_L": 0.05, "kappa_R": 0.05},
      "model":   {"kind": "tls", "n_emitters": 1.0, "g": 2.0,
                  "omega_exc": 0.0, "beta": "inf", "gamma": 0.3},
      "grid":    {"omega_min": -4.0, "omega_max": 4.0, "n_points": 4001},
      "method":  "harmonic",
      "outputs": [{"csv": "spectra.csv", "svg": "spectra.svg"}]
    }

Model kinds: ``tls``, ``disordered_tls`` (adds a ``disorder`` object),
``vibronic``, ``multilevel`` (exactly three levels), ``tabulated_chi``
(``path`` to a chi CSV, or null for an empty cavity).  ``method`` is
either the string ``"harmonic"`` or ``{"kind": "finite_n", "n_modes": M}``
with an optional ``gamma_mode``.  ``beta`` may be the string ``"inf"``
since JSON has no infinity literal.  Unknown keys anywhere are hard
errors: a typo in a physics parameter must not silently fall back to a
default.

Each config object's keys are defined once, in the field table below:
a key is also the attribute name of the object it parses into, its codec
both parses and serializes it, and a model kind also names its chi and
transitions functions.

Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 file I/O error.
"""

from __future__ import annotations

import argparse
import copy
import csv as _csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import fileio
from .bathmap import discretize_bath, effective_temperature, spectral_density_from_chi
from .core import (
    ComplexSpectrum,
    FrequencyGrid,
    NumericalError,
    TraSpectra,
    ValidationError,
    local_maxima,
    make_grid,
)
from .spectra import (
    CavityParams,
    green_finite_n,
    spectra_from_green,
    spectra_harmonic,
)
from .susceptibility import (
    DisorderSpec,
    MultilevelModel,
    TlsEnsemble,
    VibronicModel,
    chi_disordered,
    chi_three_level,
    chi_tls_thermal,
    chi_vibronic,
    three_level_transitions,
    tls_transitions,
    vibronic_transitions,
)

__all__ = [
    "ConfigError",
    "DisorderedTls",
    "TabulatedChi",
    "MethodSpec",
    "OutputSpec",
    "Scenario",
    "Sweep",
    "parse_scenario",
    "parse_sweep",
    "scenario_to_config",
    "preset_config",
    "preset_names",
    "model_susceptibility",
    "model_transitions",
    "run_scenario",
    "run_sweep",
    "export_bundle",
    "peak_splitting",
    "main",
]


class ConfigError(ValidationError):
    """Configuration document is invalid; message names the offending key."""


# ---------------------------------------------------------------------------
# Model wrappers for the two kinds that are not bare susceptibility models


@dataclass(frozen=True)
class DisorderedTls:
    """Zero-temperature two-level ensemble with disordered excitation energies."""

    n_emitters: float
    g: float
    omega_exc: float
    gamma: float
    disorder: DisorderSpec

    def __post_init__(self):
        _ = self.base  # building the ensemble validates its parameters

    @property
    def base(self) -> TlsEnsemble:
        return TlsEnsemble(self.n_emitters, self.g, self.omega_exc, math.inf, self.gamma)


@dataclass(frozen=True)
class TabulatedChi:
    """Susceptibility read from a CSV file; ``path=None`` means chi = 0."""

    path: str | None


@dataclass(frozen=True)
class MethodSpec:
    kind: str
    n_modes: int | None = None
    gamma_mode: float | None = None


@dataclass(frozen=True)
class OutputSpec:
    csv: str | None = None
    svg: str | None = None


@dataclass(frozen=True)
class Scenario:
    cavity: CavityParams
    model: object
    grid: FrequencyGrid
    method: MethodSpec
    outputs: tuple[OutputSpec, ...] = ()


@dataclass(frozen=True)
class Sweep:
    base: Scenario
    base_config: dict
    parameter: str
    values: tuple


# ---------------------------------------------------------------------------
# Field table: codecs, sections and model kinds


class _Codec(NamedTuple):
    parse: Callable  # (value, dotted path for messages) -> field value
    dump: Callable  # field value -> JSON value
    optional: bool  # may be absent; omitted from the dump when None or empty


def _same(v):
    return v


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _typed(accepts: Callable, expected: str, convert: Callable) -> _Codec:
    def parse(v, path):
        if not accepts(v):
            raise ConfigError(f"{path}: expected {expected}, got {v!r}")
        return convert(v)

    return _Codec(parse, _same, False)


def _rows(width: int, what: str) -> _Codec:
    """A list of equal-length numeric rows, such as [omega, population] pairs."""
    return _typed(
        lambda v: isinstance(v, list)
        and all(isinstance(r, list) and len(r) == width for r in v)
        and all(_is_number(x) for r in v for x in r),
        f"a list of {what}",
        _same,
    )._replace(dump=lambda rows: [list(r) for r in rows])


def _parse_count(v, path: str) -> int:
    if _INTEGER.parse(v, path) < 1:
        raise ConfigError(f"{path}: must be >= 1")
    return v


def _optional(codec: _Codec) -> _Codec:
    return codec._replace(optional=True)


_NUMBER = _typed(_is_number, "a number", float)
_INTEGER = _typed(lambda v: type(v) is int, "an integer", _same)  # excludes bool
_COUNT = _Codec(_parse_count, _same, False)
_BETA = _typed(
    lambda v: v == "inf" or _is_number(v),
    'a number or the string "inf"',
    lambda v: math.inf if v == "inf" else float(v),
)._replace(dump=lambda beta: "inf" if math.isinf(beta) else beta)
_PATH = _typed(lambda v: v is None or isinstance(v, str), "a string or null", _same)
_RAW = _Codec(lambda v, path: v, _same, False)  # checked where it is used


class _Model(NamedTuple):
    build: type
    fields: dict  # config key (= attribute of the model) -> codec; "kind" is the table key
    chi: Callable  # (model, grid) -> ComplexSpectrum
    transitions: Callable | None  # model -> TransitionSet; None without transition data


def _parse_fields(fields: dict, d, path: str, prefix: str) -> dict:
    """Parsed values of the keys present in ``d``; unknown or missing keys are errors."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in d:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown key")
    for key, codec in fields.items():
        if key not in d and not codec.optional:
            raise ConfigError(f"{path}.{key}: missing required key")
    return {k: codec.parse(d[k], prefix + k) for k, codec in fields.items() if k in d}


def _dump_fields(fields: dict, obj) -> dict:
    out = {}
    for key, codec in fields.items():
        v = getattr(obj, key)
        if not (codec.optional and (v is None or v == ())):
            out[key] = codec.dump(v)
    return out


def _section(build: Callable, fields: dict) -> _Codec:
    """Codec of a config object whose keys are ``build``'s keyword arguments."""

    def parse(d, path):
        kwargs = _parse_fields(fields, d, path, f"{path}.")
        try:
            return build(**kwargs)
        except ValidationError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    return _Codec(parse, lambda obj: _dump_fields(fields, obj), False)


def _tabulated_chi(model: TabulatedChi, grid: FrequencyGrid) -> ComplexSpectrum:
    if model.path is None:
        return ComplexSpectrum(grid, np.zeros(grid.n_points, dtype=complex))
    chi = fileio.read_chi_csv(model.path)
    if chi.grid == grid:
        return chi
    if grid.omega_min < chi.grid.omega_min or grid.omega_max > chi.grid.omega_max:
        raise ValidationError(
            "scenario grid extends beyond the tabulated susceptibility range"
        )
    re = np.interp(grid.points, chi.grid.points, chi.values.real)
    im = np.interp(grid.points, chi.grid.points, chi.values.imag)
    return ComplexSpectrum(grid, re + 1j * im)


_CAVITY = _section(
    CavityParams, {"omega_ph": _NUMBER, "kappa_L": _NUMBER, "kappa_R": _NUMBER}
)
_GRID = _section(
    FrequencyGrid, {"omega_min": _NUMBER, "omega_max": _NUMBER, "n_points": _INTEGER}
)
_FINITE_N = _section(
    MethodSpec, {"kind": _RAW, "n_modes": _COUNT, "gamma_mode": _optional(_NUMBER)}
)
_OUTPUT = _section(OutputSpec, {"csv": _optional(_PATH), "svg": _optional(_PATH)})
_DISORDER = _section(DisorderSpec, {"kind": _RAW, "center": _NUMBER, "sigma": _NUMBER})

_MODELS = {
    "tls": _Model(
        TlsEnsemble,
        {"n_emitters": _NUMBER, "g": _NUMBER, "omega_exc": _NUMBER, "beta": _BETA,
         "gamma": _NUMBER},
        chi_tls_thermal,
        tls_transitions,
    ),
    "disordered_tls": _Model(
        DisorderedTls,
        {"n_emitters": _NUMBER, "g": _NUMBER, "omega_exc": _NUMBER, "gamma": _NUMBER,
         "disorder": _DISORDER},
        lambda m, grid: chi_disordered(m.base, m.disorder, grid),
        None,
    ),
    "vibronic": _Model(
        VibronicModel,
        {"n_emitters": _NUMBER, "g": _NUMBER, "omega_exc": _NUMBER, "omega_v": _NUMBER,
         "huang_rhys": _NUMBER, "gamma": _NUMBER, "m_max": _optional(_INTEGER)},
        chi_vibronic,
        vibronic_transitions,
    ),
    "multilevel": _Model(
        MultilevelModel,
        {"levels": _rows(2, "[omega, population] pairs"),
         "dipoles": _rows(3, "[low, high, amplitude] triples"),
         "n_emitters": _NUMBER, "g_scale": _NUMBER, "gamma": _NUMBER},
        chi_three_level,
        three_level_transitions,
    ),
    "tabulated_chi": _Model(TabulatedChi, {"path": _PATH}, _tabulated_chi, None),
}
_MODEL_KIND = {entry.build: kind for kind, entry in _MODELS.items()}


def _model_kind(model) -> str:
    kind = _MODEL_KIND.get(type(model))
    if kind is None:
        raise ValidationError(f"unknown model object {type(model).__name__}")
    return kind


def _parse_model(d, path: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    kind = d.get("kind")
    if kind is None:
        raise ConfigError(f"{path}.kind: missing required key")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")
    fields = {k: v for k, v in d.items() if k != "kind"}
    return _section(_MODELS[kind].build, _MODELS[kind].fields).parse(fields, path)


def _dump_model(model) -> dict:
    kind = _model_kind(model)
    return {"kind": kind, **_dump_fields(_MODELS[kind].fields, model)}


def _parse_method(v, path: str) -> MethodSpec:
    if v == "harmonic" or v == {"kind": "harmonic"}:
        return MethodSpec("harmonic")
    if isinstance(v, dict) and v.get("kind") == "finite_n":
        return _FINITE_N.parse(v, path)
    raise ConfigError(
        f'{path}: expected "harmonic" or {{"kind": "finite_n", "n_modes": M}}'
    )


def _parse_outputs(v, path: str) -> tuple:
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list")
    for i, out in enumerate(v):
        if out == {}:
            raise ConfigError(f"{path}[{i}]: needs a csv or svg path")
    return tuple(_OUTPUT.parse(out, f"{path}[{i}]") for i, out in enumerate(v))


_SCENARIO = {
    "cavity": _CAVITY,
    "model": _Codec(_parse_model, _dump_model, False),
    "grid": _GRID,
    "method": _Codec(
        _parse_method,
        lambda m: "harmonic" if m.kind == "harmonic" else _FINITE_N.dump(m),
        False,
    ),
    "outputs": _Codec(_parse_outputs, lambda outs: [_OUTPUT.dump(o) for o in outs], True),
}


def parse_scenario(cfg: dict) -> Scenario:
    """Validate a scenario configuration dict into a runnable Scenario."""
    return Scenario(**_parse_fields(_SCENARIO, cfg, "scenario", ""))


def parse_sweep(cfg: dict) -> Sweep:
    """Validate a sweep configuration: base scenario, dotted path, values."""
    keys = ("base", "parameter", "values")
    raw = _parse_fields(dict.fromkeys(keys, _RAW), cfg, "sweep", "sweep.")
    base_cfg, parameter, values = (raw[k] for k in keys)
    base = parse_scenario(base_cfg)
    if not isinstance(parameter, str) or not parameter:
        raise ConfigError("sweep.parameter: expected a dotted path string")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values: expected a nonempty list")
    for v in values:
        _apply_parameter(copy.deepcopy(base_cfg), parameter, v)  # resolvable?
    return Sweep(base, copy.deepcopy(base_cfg), parameter, tuple(values))


def _apply_parameter(cfg: dict, parameter: str, value) -> dict:
    if parameter == "model.populations":
        if cfg.get("model", {}).get("kind") != "multilevel":
            raise ConfigError(
                "sweep.parameter: model.populations needs a multilevel model"
            )
        levels = cfg["model"]["levels"]
        if not isinstance(value, list) or len(value) != len(levels):
            raise ConfigError(
                "sweep.values: each populations value needs one entry per level"
            )
        for lv, p in zip(levels, value):
            lv[1] = p
        return cfg
    keys = parameter.split(".")
    node = cfg
    for k in keys[:-1]:
        if not isinstance(node, dict) or k not in node:
            raise ConfigError(f"sweep.parameter: {parameter!r} does not resolve")
        node = node[k]
    if not isinstance(node, dict) or keys[-1] not in node:
        raise ConfigError(f"sweep.parameter: {parameter!r} does not resolve")
    node[keys[-1]] = value
    return cfg


def scenario_to_config(s: Scenario) -> dict:
    """Canonical configuration dict of a scenario (JSON-serializable)."""
    return _dump_fields(_SCENARIO, s)


def model_susceptibility(model, grid: FrequencyGrid) -> ComplexSpectrum:
    """Evaluate the model's susceptibility on a grid."""
    return _MODELS[_model_kind(model)].chi(model, grid)


def model_transitions(model):
    """Transition set of a model, or None for non-transition-based models."""
    transitions = _MODELS[_model_kind(model)].transitions
    return None if transitions is None else transitions(model)


# ---------------------------------------------------------------------------
# Runners


def _positive_grid(grid: FrequencyGrid) -> FrequencyGrid | None:
    """The grid's points above zero as a grid of their own; None if fewer than two."""
    pos = grid.points[grid.points > 0]
    if pos.size < 2:
        return None
    return make_grid(float(pos[0]), float(pos[-1]), pos.size)


def _compute(s: Scenario) -> TraSpectra:
    if s.method.kind == "harmonic":
        return spectra_harmonic(model_susceptibility(s.model, s.grid), s.cavity)
    pos_grid = _positive_grid(s.grid)
    if pos_grid is None:
        raise ValidationError("finite_n needs positive frequencies in the scenario grid")
    J = spectral_density_from_chi(model_susceptibility(s.model, pos_grid))
    bath = discretize_bath(J, s.method.n_modes, s.method.gamma_mode)
    return spectra_from_green(green_finite_n(bath, s.cavity, s.grid), s.cavity)


def run_scenario(
    s: Scenario, out_csv: str | None = None, out_svg: str | None = None
) -> TraSpectra:
    """Compute the scenario's spectra and write its configured outputs."""
    tra = _compute(s)
    for out in (*s.outputs, OutputSpec(out_csv, out_svg)):
        if out.csv:
            fileio.write_tra_csv(out.csv, tra)
        if out.svg:
            fileio.write_tra_svg(out.svg, tra)
    return tra


def peak_splitting(tra: TraSpectra) -> float:
    """Distance between outermost transmission maxima (0 for single peak)."""
    peaks = local_maxima(tra.transmission)
    if len(peaks) < 2:
        return 0.0
    return peaks[-1][0] - peaks[0][0]


def run_sweep(sw: Sweep, outdir: str = ".") -> list[TraSpectra]:
    """Run the base scenario once per value; write per-value and summary CSVs.

    Values are independent of each other and could run in parallel; the
    summary rows are emitted in input order either way.
    """
    os.makedirs(outdir, exist_ok=True)
    results = []
    rows = []
    for i, value in enumerate(sw.values):
        cfg = _apply_parameter(copy.deepcopy(sw.base_config), sw.parameter, value)
        cfg.pop("outputs", None)
        scenario = parse_scenario(cfg)
        tra = _compute(scenario)
        results.append(tra)
        fileio.write_tra_csv(os.path.join(outdir, f"sweep_{i:03d}.csv"), tra)
        label = value if isinstance(value, str) else json.dumps(value)
        rows.append((label, peak_splitting(tra)))
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["value", "peak_splitting"])
    for label, split in rows:
        writer.writerow([label, "%.16e" % split])
    fileio._atomic_write_text(os.path.join(outdir, "summary.csv"), buf.getvalue())
    return results


def export_bundle(s: Scenario, outdir: str) -> list[str]:
    """Write chi, coupling density, effective temperature and spectra CSVs.

    ``beta_eff.csv`` needs uphill transitions on a grid with positive
    frequencies; without them it is omitted with a note on stderr.
    """
    os.makedirs(outdir, exist_ok=True)
    written = []

    def write(name, writer, data):
        path = os.path.join(outdir, name)
        writer(path, data)
        written.append(path)

    chi = model_susceptibility(s.model, s.grid)
    write("chi.csv", fileio.write_chi_csv, chi)
    write("j_eff.csv", fileio.write_jeff_csv, spectral_density_from_chi(chi))
    ts = model_transitions(s.model)
    pos_grid = _positive_grid(s.grid)
    if ts is None:
        omitted = "model has no transition data"
    elif any(t.omega_zy < 0 for t in ts):
        omitted = "model has transitions below omega = 0"
    elif pos_grid is None:
        omitted = "grid has fewer than two positive frequencies"
    else:
        omitted = None
        beta_eff = effective_temperature(ts, pos_grid)
        write("beta_eff.csv", fileio.write_beta_eff_csv, beta_eff)
    if omitted:
        print(f"note: beta_eff.csv omitted ({omitted})", file=sys.stderr)
    tra = spectra_harmonic(chi, s.cavity) if s.method.kind == "harmonic" else _compute(s)
    write("spectra.csv", fileio.write_tra_csv, tra)
    return written


# ---------------------------------------------------------------------------
# Presets


def _fig2a() -> dict:
    return {
        "description": "resonant two-level ensemble, collective coupling 2.0, "
        "zero temperature",
        "cavity": {"omega_ph": 0.0, "kappa_L": 0.05, "kappa_R": 0.05},
        "model": {
            "kind": "tls",
            "n_emitters": 1.0,
            "g": 2.0,
            "omega_exc": 0.0,
            "beta": "inf",
            "gamma": 0.3,
        },
        "grid": {"omega_min": -4.0, "omega_max": 4.0, "n_points": 4001},
        "method": "harmonic",
    }


def _fig2b() -> dict:
    base = _fig2a()
    del base["description"]
    # detuned from zero so the thermal factor actually varies with beta
    base["model"]["omega_exc"] = 1.0
    base["cavity"]["omega_ph"] = 1.0
    base["grid"] = {"omega_min": -4.0, "omega_max": 6.0, "n_points": 5001}
    return {
        "description": "temperature sweep of the resonant two-level ensemble: "
        "the peak splitting contracts as saturation sets in",
        "base": base,
        "parameter": "model.beta",
        "values": ["inf", 2.0, 1.0, 0.5, 0.25, 0.0],
    }


def _fig3(kind: str) -> dict:
    return {
        "description": f"{kind} energy disorder (width 1.0) across a "
        "two-level ensemble, collective coupling 1.5",
        "cavity": {"omega_ph": 0.0, "kappa_L": 0.05, "kappa_R": 0.05},
        "model": {
            "kind": "disordered_tls",
            "n_emitters": 1.0,
            "g": 1.5,
            "omega_exc": 0.0,
            "gamma": 0.1,
            "disorder": {"kind": kind, "center": 0.0, "sigma": 1.0},
        },
        "grid": {"omega_min": -5.0, "omega_max": 5.0, "n_points": 4001},
        "method": "harmonic",
    }


def _fig4() -> dict:
    return {
        "description": "vibronic progression (mode 0.3, displacement parameter 3) "
        "under collective coupling 1.0",
        "cavity": {"omega_ph": 0.0, "kappa_L": 0.05, "kappa_R": 0.05},
        "model": {
            "kind": "vibronic",
            "n_emitters": 1.0,
            "g": 1.0,
            "omega_exc": 0.0,
            "omega_v": 0.3,
            "huang_rhys": 3.0,
            "gamma": 0.1,
        },
        "grid": {"omega_min": -4.0, "omega_max": 4.0, "n_points": 4001},
        "method": "harmonic",
    }


def _fig5(populations, note) -> dict:
    return {
        "description": "three-level ensemble (gaps 1 and 2) with populations "
        f"{populations}: {note}",
        "cavity": {"omega_ph": 1.0, "kappa_L": 0.05, "kappa_R": 0.05},
        "model": {
            "kind": "multilevel",
            "levels": [[0.0, populations[0]], [1.0, populations[1]], [3.0, populations[2]]],
            "dipoles": [[1, 2, 1.0], [2, 3, 1.0], [1, 3, 1.0]],
            "n_emitters": 1.0,
            "g_scale": 1.0,
            "gamma": 0.3,
        },
        "grid": {"omega_min": -1.0, "omega_max": 5.0, "n_points": 4001},
        "method": "harmonic",
    }


def _empty_cavity() -> dict:
    return {
        "description": "bare cavity: zero susceptibility baseline",
        "cavity": {"omega_ph": 0.0, "kappa_L": 0.05, "kappa_R": 0.05},
        "model": {"kind": "tabulated_chi", "path": None},
        "grid": {"omega_min": -4.0, "omega_max": 4.0, "n_points": 4001},
        "method": "harmonic",
    }


_PRESETS = {
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig3a": lambda: _fig3("gaussian"),
    "fig3b": lambda: _fig3("lorentzian"),
    "fig4": _fig4,
    "fig5a": lambda: _fig5((0.7, 0.2, 0.1), "four hybrid peaks"),
    "fig5b": lambda: _fig5((0.48, 0.48, 0.04), "one transition saturated, three peaks"),
    "fig5c": lambda: _fig5(
        (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0), "fully saturated, bare-cavity response"
    ),
    "empty_cavity": _empty_cavity,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_config(name: str) -> dict:
    """Configuration dict of a bundled preset (description key removed)."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    cfg = _PRESETS[name]()
    cfg.pop("description", None)
    return cfg


# ---------------------------------------------------------------------------
# Command-line entry point


def _load_config(args) -> dict:
    if args.preset and args.config:
        raise ConfigError("give either --config or --preset, not both")
    if args.preset:
        return preset_config(args.preset)
    if not args.config:
        raise ConfigError("one of --config or --preset is required")
    with open(args.config) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config}: top level must be an object")
    return cfg


def _apply_grid_overrides(cfg: dict, args) -> dict:
    target = cfg["base"] if "base" in cfg else cfg
    grid = target.get("grid")
    if not isinstance(grid, dict):
        return cfg
    if args.points is not None:
        grid["n_points"] = args.points
    if args.omega_min is not None:
        grid["omega_min"] = args.omega_min
    if args.omega_max is not None:
        grid["omega_max"] = args.omega_max
    return cfg


def _add_common(p):
    p.add_argument("--config", help="path to a JSON configuration")
    p.add_argument("--preset", help="name of a bundled preset")
    p.add_argument("--points", type=int, help="override grid n_points")
    p.add_argument("--omega-min", type=float, help="override grid omega_min")
    p.add_argument("--omega-max", type=float, help="override grid omega_max")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polarispec",
        description="Linear optical spectra of molecular microcavities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="run one scenario")
    _add_common(p_spec)
    p_spec.add_argument("--out", help="write the T/R/A table to this CSV path")
    p_spec.add_argument("--svg", help="write a line chart to this SVG path")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--outdir", default=".", help="output directory")

    p_bundle = sub.add_parser("bundle", help="export chi, densities and spectra")
    _add_common(p_bundle)
    p_bundle.add_argument("--outdir", required=True, help="output directory")

    args = parser.parse_args(argv)
    try:
        cfg = _apply_grid_overrides(_load_config(args), args)
        if args.command == "spectrum":
            if "base" in cfg:
                raise ConfigError("this configuration is a sweep; use `polarispec sweep`")
            scenario = parse_scenario(cfg)
            tra = run_scenario(scenario, args.out, args.svg)
            sinks = (
                [o.csv for o in scenario.outputs if o.csv]
                + [o.svg for o in scenario.outputs if o.svg]
                + [p for p in (args.out, args.svg) if p]
            )
            if sinks:
                print("wrote: " + " ".join(sinks))
            else:
                print(
                    "no outputs configured; use --out/--svg or an outputs list",
                    file=sys.stderr,
                )
            peaks = local_maxima(tra.transmission)
            at = " at " + " ".join(f"{f:+.6g}" for f, _ in peaks[:8]) if peaks else ""
            print(f"transmission maxima: {len(peaks)}{at}")
        elif args.command == "sweep":
            if "base" not in cfg:
                raise ConfigError(
                    "sweep configuration needs top-level keys base/parameter/values"
                )
            sweep = parse_sweep(cfg)
            run_sweep(sweep, args.outdir)
            print(f"wrote {len(sweep.values)} spectra and summary.csv to {args.outdir}")
        else:
            if "base" in cfg:
                raise ConfigError("bundle takes a scenario, not a sweep")
            scenario = parse_scenario(cfg)
            written = export_bundle(scenario, args.outdir)
            print("wrote: " + " ".join(written))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
