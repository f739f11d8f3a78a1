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

Model kinds: ``tls``, ``disordered_tls`` (a ``disorder`` object, whose
``center`` is the mean energy, replaces ``omega_exc``), ``vibronic``,
``multilevel`` (any ladder; each dipole lists its lower level first),
``tabulated_chi`` (``path`` to a chi CSV, read and checked when the model
is built, or null for an empty cavity).
``method`` is ``"harmonic"`` (short for ``{"kind": "harmonic"}``) or
``{"kind": "finite_n", "n_modes": M}`` with an optional ``gamma_mode``;
``finite_n`` feeds the chi of the bath of :func:`polarispec.bathmap.surrogate_bath`
to the same T/R/A formula.  ``outputs`` is ``spectrum``'s sink list of csv
and svg paths, written in list order; ``--out``/``--svg`` append one entry.
``beta`` may be the string ``"inf"`` since JSON has no infinity literal.
Unknown keys anywhere are hard errors: a typo in a physics parameter must
not silently fall back to a default.  Each object, ``MethodSpec`` and
``OutputSpec`` included, checks its rules when it is built, so a parsed
scenario has passed every rule and runs.

A sweep is one JSON document ``{"base": scenario, "parameter": "model.beta",
"values": [...]}``.  The dotted ``parameter`` path is resolved on the raw
base config, before parsing, and each value replaces the key it names;
every resulting scenario is validated before anything is written.
``"model.populations"`` is the one special path: on a multilevel base each
value is a list with one population per level.
``sweep`` and ``bundle`` write to ``--outdir`` and refuse ``outputs``.

Each config object's keys, the scenario's own included, are declared
once, as the init fields of the dataclass it parses into, in field order.
The field table below names only the codecs of the fields that are not
plain numbers; a codec both parses and serializes its field, and any key
whose field has a default may be left out.  A model's ``kind`` names only
the class it builds; the model object computes its own ``chi(grid)`` and
``transitions()``, so this module holds no model physics.

Exit codes: 0 success, 2 configuration error (a number beyond float range,
a count beyond what numpy can index and a grid or bath too large to fit in
memory included), 3 numerical error, 4 file I/O error.
"""

from __future__ import annotations

import argparse
import copy
import csv as _csv
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass
from typing import Callable, NamedTuple

from . import fileio
from .bathmap import (
    _positive_grid,
    effective_temperature,
    spectral_density_from_chi,
    surrogate_bath,
)
from .core import (
    _MAX_COUNT,
    ComplexSpectrum,
    FrequencyGrid,
    NumericalError,
    TraSpectra,
    ValidationError,
    _count,
    _require,
    local_maxima,
)
from .fileio import TabulatedChi
from .spectra import CavityParams, spectra_harmonic
from .susceptibility import (
    DisorderedTls,
    DisorderSpec,
    MultilevelModel,
    TlsEnsemble,
    VibronicModel,
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
    "run_scenario",
    "run_sweep",
    "export_bundle",
    "peak_splitting",
    "main",
]


class ConfigError(ValidationError):
    """Configuration document is invalid; message names the offending key."""


# ---------------------------------------------------------------------------
# Scenario objects


@dataclass(frozen=True)
class MethodSpec:
    kind: str  # "harmonic", or "finite_n" with n_modes
    n_modes: int | None = None
    gamma_mode: float | None = None

    def __post_init__(self):
        if self.kind not in ("harmonic", "finite_n"):
            raise ValidationError(f"unknown method kind {self.kind!r}")
        if self.kind == "harmonic" and (self.n_modes, self.gamma_mode) != (None, None):
            raise ValidationError("a harmonic method takes no n_modes or gamma_mode")
        if self.kind == "finite_n" and self.n_modes is None:
            raise ValidationError("finite_n needs n_modes")
        if self.n_modes is not None:  # discretize_bath makes n_modes + 1 bin edges
            object.__setattr__(self, "n_modes", _count("n_modes", self.n_modes, 1, _MAX_COUNT - 1))
        if self.gamma_mode is not None:
            _require("> 0", gamma_mode=self.gamma_mode)


@dataclass(frozen=True)
class OutputSpec:
    csv: str | None = None
    svg: str | None = None

    def __post_init__(self):
        if not (self.csv or self.svg):
            raise ValidationError("needs a csv or svg path")


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
    parameter: str
    values: tuple
    scenarios: tuple[Scenario, ...]  # one per value


# ---------------------------------------------------------------------------
# Field table: codecs, sections and model kinds


class _Codec(NamedTuple):
    parse: Callable  # (value, dotted path for messages) -> field value
    dump: Callable  # field value -> JSON value
    optional: bool = False  # may be absent; omitted from the dump when None or empty
    build: type | None = None  # the dataclass a section parses into


def _same(v):
    return v


def _is_number(v) -> bool:
    """A float, or an int (not a bool) within float range (compared exactly)."""
    return isinstance(v, float) or (type(v) is int and abs(v) <= sys.float_info.max)


def _typed(accepts: Callable, expected: str, convert: Callable) -> _Codec:
    def parse(v, path):
        if not accepts(v):
            got = repr(v)
            got = got if len(got) <= 40 else got[:36] + " ..."
            raise ConfigError(f"{path}: expected {expected}, got {got}")
        return convert(v)

    return _Codec(parse, _same)


def _rows(width: int, what: str) -> _Codec:
    """A list of equal-length numeric rows, such as [omega, population] pairs."""
    return _typed(
        lambda v: isinstance(v, list)
        and all(isinstance(r, list) and len(r) == width for r in v)
        and all(_is_number(x) for r in v for x in r),
        f"a list of {what}",
        _same,
    )._replace(dump=lambda rows: [list(r) for r in rows])


_NUMBER = _typed(_is_number, "a number", float)
_INTEGER = _typed(lambda v: type(v) is int and _is_number(v), "an integer", _same)
_BETA = _typed(
    lambda v: v == "inf" or _is_number(v),
    'a number or the string "inf"',
    lambda v: math.inf if v == "inf" else float(v),
)._replace(dump=lambda beta: "inf" if math.isinf(beta) else beta)
_PATH = _typed(lambda v: v is None or isinstance(v, str), "a string or null", _same)
_RAW = _Codec(lambda v, path: v, _same)  # checked where it is used


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
    values = {key: getattr(obj, key) for key in fields}
    return {key: fields[key].dump(v) for key, v in values.items()
            if not (fields[key].optional and (v is None or v == ()))}


def _fields(build: type, **codecs: _Codec) -> dict:
    """Codec of each init field of a dataclass, by key, in field order.

    A field is a number unless ``codecs`` names another codec for it, and
    its key may be left out when the field has a default.
    """
    return {
        f.name: codecs.get(f.name, _NUMBER)._replace(optional=f.default is not MISSING)
        for f in dataclasses.fields(build)
        if f.init
    }


def _section(build: type, named: bool = True, **codecs: _Codec) -> _Codec:
    """Codec of a dataclass config object whose keys are its init fields.

    An error in building the object is prefixed with its dotted path unless
    ``named`` is false: a chi table's error names its file instead.
    """
    fields = _fields(build, **codecs)

    def parse(d, path):
        kwargs = _parse_fields(fields, d, path, f"{path}.")
        try:
            return build(**kwargs)
        except ValidationError as exc:
            raise ConfigError(f"{path}: {exc}" if named else str(exc)) from exc

    return _Codec(parse, lambda obj: _dump_fields(fields, obj), build=build)


def _kinds(**sections: _Codec) -> _Codec:
    """Codec of an object whose ``"kind"`` key names the section of its other keys."""
    kinds = {codec.build: kind for kind, codec in sections.items()}

    def parse(d, path):
        if not isinstance(d, dict):
            raise ConfigError(f"{path}: expected an object")
        kind = d.get("kind")
        if kind is None:
            raise ConfigError(f"{path}.kind: missing required key")
        if not isinstance(kind, str) or kind not in sections:
            raise ConfigError(f"{path}.kind: unknown model kind {kind!r}")
        return sections[kind].parse({k: v for k, v in d.items() if k != "kind"}, path)

    def dump(obj):
        kind = kinds.get(type(obj))
        if kind is None:
            raise ValidationError(f"unknown model object {type(obj).__name__}")
        return {"kind": kind, **sections[kind].dump(obj)}

    return _Codec(parse, dump)


def _list(item: _Codec) -> _Codec:
    def parse(v, path):
        if not isinstance(v, list):
            raise ConfigError(f"{path}: expected a list")
        return tuple(item.parse(x, f"{path}[{i}]") for i, x in enumerate(v))

    return _Codec(parse, lambda items: [item.dump(x) for x in items])


_MODEL = _kinds(
    tls=_section(TlsEnsemble, beta=_BETA),
    disordered_tls=_section(DisorderedTls, disorder=_section(DisorderSpec, kind=_RAW)),
    vibronic=_section(VibronicModel, m_max=_INTEGER),
    multilevel=_section(MultilevelModel, levels=_rows(2, "[omega, population] pairs"),
                        dipoles=_rows(3, "[low, high, amplitude] triples")),
    tabulated_chi=_section(TabulatedChi, named=False, path=_PATH),
)
_METHOD = _section(MethodSpec, kind=_RAW, n_modes=_INTEGER)
_SCENARIO = _fields(
    Scenario,
    cavity=_section(CavityParams),
    model=_MODEL,
    grid=_section(FrequencyGrid, n_points=_INTEGER),
    method=_Codec(  # a string s is short for {"kind": s}; "harmonic" is the one it completes
        lambda v, path: _METHOD.parse({"kind": v} if isinstance(v, str) else v, path),
        lambda m: m.kind if m.kind == "harmonic" else _METHOD.dump(m),
    ),
    outputs=_list(_section(OutputSpec, csv=_PATH, svg=_PATH)),
)


def parse_scenario(cfg: dict) -> Scenario:
    """Validate a scenario configuration dict into a runnable Scenario."""
    return Scenario(**_parse_fields(_SCENARIO, cfg, "scenario", ""))


def parse_sweep(cfg: dict) -> Sweep:
    """Validate a sweep configuration: base scenario, dotted path, values."""
    keys = ("base", "parameter", "values")
    raw = _parse_fields(dict.fromkeys(keys, _RAW), cfg, "sweep", "sweep.")
    base_cfg, parameter, values = (raw[k] for k in keys)
    try:
        base = parse_scenario(base_cfg)
    except ValidationError as exc:
        raise ConfigError(f"sweep.base: {exc}") from exc
    if base.outputs:
        raise ConfigError("sweep.base.outputs: a sweep writes to its outdir, not to outputs")
    if not isinstance(parameter, str) or not parameter:
        raise ConfigError("sweep.parameter: expected a dotted path string")
    if not isinstance(values, list) or not values:
        raise ConfigError("sweep.values: expected a nonempty list")
    # a value that leaves the base's model config as it is shares the base's
    # model, so a line model is built and a chi table read once per sweep
    same_model = {**_SCENARIO, "model": _MODEL._replace(parse=lambda v, path: base.model)}
    scenarios = []
    for i, v in enumerate(values):
        cfg = _apply_parameter(copy.deepcopy(base_cfg), parameter, v)
        fields = same_model if cfg["model"] == base_cfg["model"] else _SCENARIO
        try:
            scenarios.append(Scenario(**_parse_fields(fields, cfg, "scenario", "")))
        except ValidationError as exc:
            raise ConfigError(f"sweep.values[{i}]: {exc}") from exc
    return Sweep(base, parameter, tuple(values), tuple(scenarios))


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
    *parents, last = parameter.split(".")
    node = cfg
    for k in parents:
        node = node.get(k) if isinstance(node, dict) else None
    if not isinstance(node, dict) or last not in node:
        raise ConfigError(f"sweep.parameter: {parameter!r} does not resolve")
    node[last] = value
    return cfg


def scenario_to_config(s: Scenario) -> dict:
    """Canonical configuration dict of a scenario (JSON-serializable)."""
    return _dump_fields(_SCENARIO, s)


def model_susceptibility(model, grid: FrequencyGrid) -> ComplexSpectrum:
    """``model.chi(grid)`` of a model object of the field table."""
    _MODEL.dump(model)  # an object that is no model is a ValidationError
    return model.chi(grid)


# ---------------------------------------------------------------------------
# Runners


def _compute(s: Scenario, chi: ComplexSpectrum | None = None) -> TraSpectra:
    """Spectra of the scenario; ``chi`` is the model's chi on ``s.grid`` if known."""
    if chi is None:
        chi = s.model.chi(s.grid)
    if s.method.kind != "harmonic":
        chi = surrogate_bath(chi, s.method.n_modes, s.method.gamma_mode).chi(s.grid)
    return spectra_harmonic(chi, s.cavity)


def run_scenario(s: Scenario) -> TraSpectra:
    """Compute the scenario's spectra and write its outputs, each entry's csv first."""
    tra = _compute(s)
    for o in s.outputs:
        if o.csv:
            fileio.write_tra_csv(o.csv, tra)
        if o.svg:
            fileio.write_tra_svg(o.svg, tra)
    return tra


def peak_splitting(tra: TraSpectra) -> float:
    """Distance between outermost transmission maxima (0 for single peak)."""
    peaks = local_maxima(tra.transmission)
    if len(peaks) < 2:
        return 0.0
    return peaks[-1][0] - peaks[0][0]


def run_sweep(sw: Sweep, outdir: str = ".") -> list[TraSpectra]:
    """Run the sweep's scenario of each value; write per-value and summary CSVs.

    Values are independent of each other and could run in parallel; the
    summary rows are emitted in input order either way.
    """
    os.makedirs(outdir, exist_ok=True)
    results = []
    rows = []
    for i, (value, scenario) in enumerate(zip(sw.values, sw.scenarios)):
        tra = _compute(scenario)
        results.append(tra)
        fileio.write_tra_csv(os.path.join(outdir, f"sweep_{i:03d}.csv"), tra)
        label = value if isinstance(value, str) else json.dumps(value)
        rows.append((label, peak_splitting(tra)))
    path = os.path.join(outdir, "summary.csv")
    with fileio._atomic_open(path) as fh, io.TextIOWrapper(fh) as text:  # as open(path, "w")
        writer = _csv.writer(text, lineterminator="\n")
        writer.writerow(["value", "peak_splitting"])
        for label, split in rows:
            writer.writerow([label, "%.16e" % split])
    return results


def export_bundle(s: Scenario, outdir: str) -> list[str]:
    """Write chi, coupling density, effective temperature and spectra CSVs.

    ``beta_eff.csv`` needs uphill transitions on a grid with positive
    frequencies; without them it is omitted with a note on stderr.  A
    scenario with ``outputs`` is refused before anything is written.
    """
    if s.outputs:
        raise ConfigError("outputs: a bundle writes to its outdir, not to outputs")
    chi = s.model.chi(s.grid)  # first: a chi table that cannot be read leaves no outdir
    os.makedirs(outdir, exist_ok=True)
    written = []

    def write(name, writer, data):
        path = os.path.join(outdir, name)
        writer(path, data)
        written.append(path)

    write("chi.csv", fileio.write_chi_csv, chi)
    write("j_eff.csv", fileio.write_jeff_csv, spectral_density_from_chi(chi))
    ts = s.model.transitions()
    pos_grid = _positive_grid(s.grid)
    if ts is None:
        omitted = "model has no transition data"
    elif (ts.omega_zy < 0).any():
        omitted = "model has transitions below omega = 0"
    elif pos_grid is None:
        omitted = "grid has fewer than two positive frequencies"
    else:
        omitted = None
        beta_eff = effective_temperature(ts, pos_grid)
        write("beta_eff.csv", fileio.write_beta_eff_csv, beta_eff)
    if omitted:
        print(f"note: beta_eff.csv omitted ({omitted})", file=sys.stderr)
    write("spectra.csv", fileio.write_tra_csv, _compute(s, chi))
    return written


# ---------------------------------------------------------------------------
# Presets


# The scenario every preset starts from, a bare cavity (chi = 0); each other
# preset replaces its model and may replace keys of its cavity and grid.
_BASE = {
    "cavity": {"omega_ph": 0.0, "kappa_L": 0.05, "kappa_R": 0.05},
    "model": {"kind": "tabulated_chi", "path": None},
    "grid": {"omega_min": -4.0, "omega_max": 4.0, "n_points": 4001},
    "method": "harmonic",
}


def _preset(model: dict, **sections: dict) -> dict:
    cfg = copy.deepcopy(_BASE)
    for name, keys in sections.items():
        cfg[name].update(keys)
    cfg["model"] = model
    return cfg


def _tls(omega_exc: float) -> dict:
    return {"kind": "tls", "n_emitters": 1.0, "g": 2.0, "omega_exc": omega_exc,
            "beta": "inf", "gamma": 0.3}


def _disordered(kind: str) -> dict:
    return {"kind": "disordered_tls", "n_emitters": 1.0, "g": 1.5, "gamma": 0.1,
            "disorder": {"kind": kind, "center": 0.0, "sigma": 1.0}}


def _three_level(*populations: float) -> dict:
    model = {"kind": "multilevel",
             "levels": [[w, p] for w, p in zip((0.0, 1.0, 3.0), populations)],
             "dipoles": [[1, 2, 1.0], [2, 3, 1.0], [1, 3, 1.0]],
             "n_emitters": 1.0, "g_scale": 1.0, "gamma": 0.3}
    return _preset(model, cavity={"omega_ph": 1.0},
                   grid={"omega_min": -1.0, "omega_max": 5.0})


_PRESETS = {
    # resonant two-level ensemble, collective coupling 2.0, zero temperature
    "fig2a": _preset(_tls(0.0)),
    # temperature sweep of the resonant two-level ensemble: the peak splitting
    # contracts as saturation sets in; detuned from zero so the thermal factor
    # actually varies with beta
    "fig2b": {
        "base": _preset(_tls(1.0), cavity={"omega_ph": 1.0},
                        grid={"omega_max": 6.0, "n_points": 5001}),
        "parameter": "model.beta",
        "values": ["inf", 2.0, 1.0, 0.5, 0.25, 0.0],
    },
    # gaussian and lorentzian energy disorder (width 1.0) across a two-level
    # ensemble, collective coupling 1.5
    "fig3a": _preset(_disordered("gaussian"), grid={"omega_min": -5.0, "omega_max": 5.0}),
    "fig3b": _preset(_disordered("lorentzian"), grid={"omega_min": -5.0, "omega_max": 5.0}),
    # vibronic progression (mode 0.3, displacement parameter 3) under
    # collective coupling 1.0
    "fig4": _preset({"kind": "vibronic", "n_emitters": 1.0, "g": 1.0, "omega_exc": 0.0,
                     "omega_v": 0.3, "huang_rhys": 3.0, "gamma": 0.1}),
    # three-level ensemble (gaps 1 and 2) with fixed populations:
    "fig5a": _three_level(0.7, 0.2, 0.1),  # four hybrid peaks
    "fig5b": _three_level(0.48, 0.48, 0.04),  # one transition saturated, three peaks
    "fig5c": _three_level(1 / 3, 1 / 3, 1 / 3),  # fully saturated, bare-cavity response
    # bare cavity: zero susceptibility baseline
    "empty_cavity": _BASE,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset_config(name: str) -> dict:
    """Configuration dict of a bundled preset (a fresh copy)."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return copy.deepcopy(_PRESETS[name])


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
        except ValueError as exc:  # JSONDecodeError, or an int of too many digits
            raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config}: top level must be an object")
    return cfg


def _scenario_section(cfg: dict, key: str) -> dict:
    """The ``key`` object of a scenario or of a sweep's base; {} if absent."""
    target = cfg["base"] if "base" in cfg else cfg
    if not isinstance(target, dict):
        raise ConfigError("sweep.base: expected an object")
    section = target.get(key)
    return section if isinstance(section, dict) else {}


def _apply_grid_overrides(cfg: dict, args) -> dict:
    grid = _scenario_section(cfg, "grid")
    given = {"n_points": args.points, "omega_min": args.omega_min, "omega_max": args.omega_max}
    grid.update((key, v) for key, v in given.items() if v is not None)
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
    cfg = None
    try:
        cfg = _apply_grid_overrides(_load_config(args), args)
        if args.command == "spectrum":
            if "base" in cfg:
                raise ConfigError("this configuration is a sweep; use `polarispec sweep`")
            scenario = parse_scenario(cfg)
            flag_outputs = (OutputSpec(args.out, args.svg),) if args.out or args.svg else ()
            scenario = dataclasses.replace(scenario, outputs=scenario.outputs + flag_outputs)
            tra = run_scenario(scenario)
            sinks = [path for o in scenario.outputs for path in (o.csv, o.svg) if path]
            if sinks:
                print("wrote: " + " ".join(sinks))
            else:
                print("no outputs configured; use --out/--svg or an outputs list",
                      file=sys.stderr)
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
    except MemoryError:
        points = _scenario_section(cfg, "grid").get("n_points") if cfg else None
        modes = _scenario_section(cfg, "method").get("n_modes") if cfg else None
        size = f"a grid of {points} points" if points is not None else "this run"
        fix = "fewer --points"
        if modes is not None:
            size += f" with a bath of n_modes = {modes}"
            fix += " or a smaller n_modes"
        print(f"error: {size} does not fit in memory; use {fix}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
