"""Spans around calls into polarispec's public functions.

The tracer replaces each public function of the six modules with a
wrapper, in the defining module and in every module that imported it by
name, and restores them on exit.  Nothing in the package changes.  A span
is recorded only inside an op, so the benchmark's own checks, which also
call the package, stay out of the trace.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import time

LAYERS = ("cli", "core", "susceptibility", "spectra", "bathmap", "fileio")


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _points(args, kwargs, result):
    return args[0].values.size


def _grid_points(args, kwargs, result):
    return args[-1].n_points


# Work done by one call, counted where the work happens.
COUNTERS = {
    ("fileio", "write_columns"): _csv_bytes,
    ("core", "local_maxima"): _points,
    ("susceptibility", "chi_multilevel"): lambda a, k, r: len(a[0]) * a[1].n_points,
    ("susceptibility", "chi_tls_thermal"): _grid_points,
    ("susceptibility", "chi_disordered"): _grid_points,
    ("susceptibility", "chi_from_correlation"): lambda a, k, r: 2 * a[0].grid.n_points * a[1].n_points,
    ("susceptibility", "chi_from_spectral_density"): lambda a, k, r: a[0].grid.n_points * a[1].n_points,
    ("bathmap", "reconstruct_correlation"): lambda a, k, r: a[0].grid.n_points * a[2].n_points,
    ("bathmap", "spectral_density_from_correlation"): (
        lambda a, k, r: int((a[1].points >= 0).sum()) * a[0].grid.n_points
    ),
    ("spectra", "green_finite_n"): lambda a, k, r: a[2].n_points * (1 + len(a[0])),
}

CSV_WRITERS = {
    ("fileio", n)
    for n in ("write_columns", "write_tra_csv", "write_chi_csv", "write_jeff_csv",
              "write_beta_eff_csv", "write_c2_csv")
}
CHI_MODELS = {
    ("susceptibility", n)
    for n in ("chi_multilevel", "chi_tls_thermal", "chi_disordered", "chi_vibronic",
              "chi_three_level", "faddeeva")
}
TRANSFORMS = {("susceptibility", "chi_from_correlation"), ("susceptibility", "chi_from_spectral_density")}
DENSITIES = {("bathmap", "spectral_density_from_correlation"), ("bathmap", "spectral_density_from_chi")}
BATH_TRANSFORMS = {("bathmap", "reconstruct_correlation"), ("bathmap", "spectral_density_from_correlation")}
TRA = {("spectra", n) for n in ("spectra_harmonic", "spectra_from_green", "photon_green_function",
                                 "landauer_transmission")}
PARSE = {("cli", n) for n in ("parse_scenario", "parse_sweep", "preset_config")}
PEAKS = {("core", "local_maxima")}
GREEN = {("spectra", "green_finite_n")}


class Span:
    __slots__ = ("id", "parent", "op", "layer", "name", "start", "end", "count")

    def __init__(self, sid, parent, op, layer, name):
        self.id, self.parent, self.op, self.layer, self.name = sid, parent, op, layer, name
        self.start = time.perf_counter()
        self.end = None
        self.count = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _open(self, layer, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None,
                    parent.op if parent else len(self.spans), layer, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name):
        """Root span of one operation; spans below it carry its id."""
        span = self._open("op", name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, layer, name, fn):
        counter = COUNTERS.get((layer, name))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.count = counter(args, kwargs, result)
                return result
            finally:
                self._close(span)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [importlib.import_module("polarispec")] + [
            importlib.import_module(f"polarispec.{layer}") for layer in LAYERS
        ]
        for layer, mod in zip(LAYERS, modules[1:]):
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(layer, name, fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapped)
                            self._patched.append((holder, attr, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                [
                    {"id": s.id, "parent": s.parent, "op": s.op, "layer": s.layer, "name": s.name,
                     "start": s.start, "end": s.end, "count": s.count}
                    for s in self.spans
                ],
                fh,
            )

    # -- per-layer metrics -------------------------------------------------

    def _seconds(self, keys) -> float:
        """Time in spans of ``keys`` that are not nested in another of them."""
        total = 0.0
        for s in self.spans:
            if (s.layer, s.name) not in keys:
                continue
            p = s.parent
            while p is not None and (self.spans[p].layer, self.spans[p].name) not in keys:
                p = self.spans[p].parent
            if p is None:
                total += s.end - s.start
        return total

    def _work(self, keys) -> float:
        return float(sum(s.count for s in self.spans if (s.layer, s.name) in keys))

    def _self_time(self, layer) -> float:
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
        return sum(s.end - s.start - child.get(s.id, 0.0) for s in self.spans if s.layer == layer)

    def layer_metrics(self, rounds: int, span_cost_s: float) -> dict:
        """Per-layer metrics: times and counts per round, rates per second."""

        def per_round(keys):
            return self._seconds(keys) / rounds, "s"

        def rate(keys, scale=1.0, unit="1/s"):
            secs = self._seconds(keys)
            return (self._work(keys) * scale / secs if secs > 0 else 0.0), unit

        ops = [s for s in self.spans if s.layer == "op"]
        op_total = sum(s.end - s.start for s in ops)
        n_calls = len(self.spans) - len(ops)
        return {
            "fileio.csv_write_s": per_round(CSV_WRITERS),
            "fileio.csv_write_mb_per_s": rate(CSV_WRITERS, 1e-6, "MB/s"),
            "fileio.csv_bytes": (self._work(CSV_WRITERS) / rounds, "count"),
            "fileio.csv_read_s": per_round({("fileio", "read_chi_csv")}),
            "fileio.svg_write_s": per_round({("fileio", "write_tra_svg")}),
            "core.peaks_s": per_round(PEAKS),
            "core.peaks_points_per_s": rate(PEAKS),
            "susceptibility.chi_model_s": per_round(CHI_MODELS),
            "susceptibility.chi_model_evals_per_s": rate(CHI_MODELS),
            "susceptibility.transform_s": per_round(TRANSFORMS),
            "susceptibility.transform_pairs_per_s": rate(TRANSFORMS),
            "bathmap.reconstruct_s": per_round({("bathmap", "reconstruct_correlation")}),
            "bathmap.density_s": per_round(DENSITIES),
            "bathmap.transform_pairs_per_s": rate(BATH_TRANSFORMS),
            "bathmap.beta_eff_s": per_round({("bathmap", "effective_temperature")}),
            "bathmap.discretize_s": per_round({("bathmap", "discretize_bath")}),
            "spectra.green_finite_n_s": per_round(GREEN),
            "spectra.mode_points_per_s": rate(GREEN),
            "spectra.tra_s": per_round(TRA),
            "cli.parse_s": per_round(PARSE),
            "cli.self_s": (self._self_time("cli") / rounds, "s"),
            "trace.overhead_pct": (100.0 * n_calls * span_cost_s / op_total, "%"),
        }


def span_cost() -> float:
    """Seconds a wrapper adds to one traced call (median of five batches)."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer.wrap("calibration", "noop", noop)
    costs = []
    for _ in range(5):
        with tracer.op("calibration"):
            t0 = time.perf_counter()
            for _ in range(2000):
                wrapped()
            traced = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(2000):
            noop()
        costs.append((traced - (time.perf_counter() - t0)) / 2000)
        tracer.spans.clear()
    return max(statistics.median(costs), 0.0)
