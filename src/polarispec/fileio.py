"""CSV and SVG emission, plus tabulated susceptibility import.

:class:`TabulatedChi` is the model whose chi is read from a chi CSV and
interpolated onto the requested grid (here, not in ``susceptibility``,
which cannot import this module).

All CSV output uses 17 significant digits (``%.16e``), which round-trips
float64 exactly.  Rows are streamed in blocks of ``core._BLOCK`` fields
(``core._blocks``), each formatted by :func:`_format_block`, an exact
vectorized ``%.16e`` (after Adams, "Ryu revisited: printf floating point
conversion", 2019): each |x| is scaled to 17 digits as a double-double,
the rounding is decided against a derived error bound, and the rare
field it cannot decide is formatted alone by ``_FMT %``, so every byte
equals CPython's output.
Every file is written atomically (temp file in the target directory,
then rename) so partially written files never appear under the final
name.  Headers are fixed strings; readers validate them byte-for-byte.
"""

from __future__ import annotations

import contextlib
import functools
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ComplexSpectrum, FrequencyGrid, RealSpectrum, TraSpectra, ValidationError
from .core import _blocks, _frozen, _two_product
from .bathmap import CorrelationFunction, EffectiveTemperature

__all__ = [
    "TabulatedChi",
    "write_columns",
    "write_tra_csv",
    "write_chi_csv",
    "read_chi_csv",
    "write_jeff_csv",
    "write_beta_eff_csv",
    "write_c2_csv",
    "write_tra_svg",
]

_FMT = "%.16e"


@contextlib.contextmanager
def _atomic_open(path: str):
    """Binary handle on a temp file beside ``path``, renamed onto it on success.

    The file gets the mode ``open(path, "w")`` would give it: an existing
    file keeps its permission bits, a new one gets 0o666 less the umask.
    On any exception the temp file is removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp, os.stat(path).st_mode & 0o777)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_columns(path: str, header: str, columns) -> None:
    """Write comma-separated numeric columns under an exact header line."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValidationError("all columns must have equal length")
    with _atomic_open(path) as fh:
        fh.write(f"{header}\n".encode())
        # stacked one block at a time: no copy of the whole table
        for sl in _blocks(n, len(cols)):
            fh.write(_format_block(np.column_stack([c[sl] for c in cols])))


# For |x| in [_LOW, _HIGH], E = floor(log10|x|) lies in [-281, 280] (281 after
# a carry), where 10**(16 - E) and Dekker's split neither overflow nor underflow.
_LOW, _HIGH, _E_MIN, _E_MAX = 1e-280, 1e280, -281, 281
_TIE_MARGIN = 2.0**-40  # above the error bound 2**-47 derived in _format_block
# A field's byte slot is 7 native uint32 words, each filled by one table
# lookup; NUL bytes ("_") are dropped: _-d. dddd dddd dddd dddd e+ht o,__
_SLOT, _SEP_BYTE = 28, 25


@functools.cache
def _tables():
    """Tables built on the first write: 10**(16 - E) as (hi, lo), each float
    correctly rounded from exact integers (so hi + lo is within 2**-106
    relative), and the slot words "_-d." (at d + 10 * negative), "dddd",
    "e+ht" and "o,__" (by E)."""
    hi, lo = [], []
    for k in range(16 - _E_MIN, 16 - _E_MAX - 1, -1):
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            hi.append(1 / 10**-k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
    exps = [f"e{e:+04d}" for e in range(_E_MIN, _E_MAX + 1)]  # e+hto
    text = [f"_{sign}{d}." for sign in "_-" for d in range(10)]
    text += [f"{g:04d}" for g in range(10**4)]
    text += [e[:2] + e[2].replace("0", "_") + e[3] for e in exps] + [e[4] + ",__" for e in exps]
    words = np.frombuffer("".join(text).replace("_", "\0").encode(), np.uint32)
    return np.array(hi), np.array(lo), *np.split(words, np.cumsum([20, 10**4, len(exps)]))


def _format_block(block) -> bytes:
    """Rows of ``block`` as CSV bytes, each field byte-identical to ``_FMT % v``.

    With E = floor(log10|x|) and k = 16 - E, y = |x| * 10**k is p + t:
    (p, e) = _two_product(|x|, hi_k) exactly, t = fl(e + fl(|x| * lo_k)).
    The digits are N = round-half-even(y), N = 10**17 carrying to 10**16
    and E + 1.  Error bound for y < 10**17 < 2**57, with u = 2**-53: the
    table (|hi_k + lo_k - 10**k| <= u**2 * 10**k) and the rounding of
    |x| * lo_k (|lo_k| <= u * hi_k) give at most 2 * u**2 * y < 2**-48;
    |e| <= ulp(p) / 2 <= 8 and |x * lo_k| <= u * y < 12 put t below 32,
    whose rounding adds 2**-49: below 2**-47 in all.  p >= 2**53 is an even
    integer, so N = p + rint(t) and floor(y) = p + floor(t) when t's fraction
    is farther than _TIE_MARGIN from 1/2.  A nonzero field is formatted alone
    by ``_FMT %`` when it is non-finite or outside [_LOW, _HIGH] (then y = 0),
    within _TIE_MARGIN of a tie, or when floor(y) before rounding lies outside
    [10**16, 10**17) (log10 off by one).  Zero needs no special path: N = E = 0.
    """
    hi, lo, leads, groups, exp_head, exp_tail = _tables()
    x = block.ravel()
    a = np.abs(x)
    ok = (a >= _LOW) & (a <= _HIGH)
    a[~ok] = 0.0
    index = np.floor(np.log10(a, out=np.zeros_like(a), where=ok)).astype(np.int64) - _E_MIN
    p, err = _two_product(a, hi[index])
    t = err + a * lo[index]
    floor_t = np.floor(t)
    n = p.astype(np.int64)
    whole = n + floor_t.astype(np.int64)
    fallback = (x != 0) & (
        (whole < 10**16) | (whole >= 10**17) | (np.abs(t - floor_t - 0.5) < _TIE_MARGIN)
    )
    n += np.rint(t).astype(np.int64)
    n[fallback] = 0
    carry = n == 10**17
    n[carry] = 10**16
    index += carry
    top = n // 10**8
    lead = top // 10**8
    slots = np.empty((x.size, _SLOT), np.uint8)
    words = slots.view(np.uint32)
    words[:, 0] = leads[lead + 10 * np.signbit(x)]
    for col, part in ((1, top - lead * 10**8), (3, n - top * 10**8)):
        high = part // 10**4
        words[:, col], words[:, col + 1] = groups[high], groups[part - high * 10**4]
    words[:, 5], words[:, 6] = exp_head[index], exp_tail[index]
    slots.reshape(block.shape + (_SLOT,))[:, -1, _SEP_BYTE] = ord("\n")
    for i in np.flatnonzero(fallback):
        text = (_FMT % float(x[i])).encode().ljust(_SEP_BYTE, b"\0")
        slots[i, :_SEP_BYTE] = np.frombuffer(text, np.uint8)
    return slots[slots != 0].tobytes()


def write_tra_csv(path: str, tra: TraSpectra) -> None:
    write_columns(
        path,
        "omega,T,R,A",
        (
            tra.grid.points,
            tra.transmission.values,
            tra.reflection.values,
            tra.absorption.values,
        ),
    )


def write_chi_csv(path: str, chi: ComplexSpectrum) -> None:
    write_columns(
        path,
        "omega,re_chi,im_chi",
        (chi.grid.points, chi.values.real, chi.values.imag),
    )


def read_chi_csv(path: str) -> ComplexSpectrum:
    """Read a tabulated susceptibility (``omega,re_chi,im_chi``).

    The frequency column must be a finite, uniform ascending grid; it
    becomes the spectrum's grid verbatim.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "omega,re_chi,im_chi":
            raise ValidationError(
                f"{path}: expected header 'omega,re_chi,im_chi', got {header!r}"
            )
        try:
            with warnings.catch_warnings():  # no data rows is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # a non-numeric cell or a ragged row
            raise ValidationError(f"{path}: {exc}") from exc
    if data.shape[0] < 2:
        raise ValidationError(f"{path}: need at least two rows")
    if data.shape[1] != 3:
        raise ValidationError(f"{path}: expected 3 columns, got {data.shape[1]}")
    omega = data[:, 0]
    if not np.isfinite(omega).all():
        raise ValidationError(f"{path}: frequency column must be finite")
    spacing = np.diff(omega)
    if spacing.min() <= 0 or np.abs(spacing - spacing[0]).max() > 1e-9 * spacing[0]:
        raise ValidationError(f"{path}: frequency column must be uniform ascending")
    grid = FrequencyGrid(float(omega[0]), float(omega[-1]), omega.size)
    return ComplexSpectrum(grid, _frozen(data[:, 1] + 1j * data[:, 2]))


@dataclass(frozen=True)
class TabulatedChi:
    """Susceptibility read from a CSV file; ``path=None`` means chi = 0."""

    path: str | None

    def transitions(self) -> None:
        """None: a tabulated chi carries no line list."""
        return None

    def chi(self, grid: FrequencyGrid) -> ComplexSpectrum:
        """The table on ``grid``: verbatim on its own grid, else interpolated."""
        if self.path is None:
            return ComplexSpectrum(grid, _frozen(np.zeros(grid.n_points, dtype=complex)))
        chi = read_chi_csv(self.path)
        if chi.grid == grid:
            return chi
        if grid.omega_min < chi.grid.omega_min or grid.omega_max > chi.grid.omega_max:
            raise ValidationError(
                "scenario grid extends beyond the tabulated susceptibility range"
            )
        re = np.interp(grid.points, chi.grid.points, chi.values.real)
        im = np.interp(grid.points, chi.grid.points, chi.values.imag)
        return ComplexSpectrum(grid, _frozen(re + 1j * im))


def write_jeff_csv(path: str, J: RealSpectrum) -> None:
    write_columns(path, "omega,j_eff", (J.grid.points, J.values))


def write_beta_eff_csv(path: str, beta_eff: EffectiveTemperature) -> None:
    write_columns(
        path, "omega,beta_eff", (beta_eff.grid.points, beta_eff.values)
    )


def write_c2_csv(path: str, c2: CorrelationFunction) -> None:
    write_columns(
        path,
        "t,re_c2,im_c2",
        (c2.grid.times, c2.values.real, c2.values.imag),
    )


# ---------------------------------------------------------------------------
# Minimal static SVG line chart


_SVG_W, _SVG_H = 840, 520
_ML, _MR, _MT, _MB = 72, 24, 24, 56
_TRACES = (("T", "#1f77b4"), ("R", "#2ca02c"), ("A", "#d62728"))


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def write_tra_svg(path: str, tra: TraSpectra) -> None:
    """Render T/R/A as a static SVG line chart (axes, ticks, legend)."""
    omega = tra.grid.points
    series = [
        tra.transmission.values,
        tra.reflection.values,
        tra.absorption.values,
    ]
    ylo = min(float(s.min()) for s in series)
    yhi = max(float(s.max()) for s in series)
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    xlo, xhi = float(omega[0]), float(omega[-1])

    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * plot_w

    def sy(y):
        return _MT + (yhi - y) / (yhi - ylo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    for xv in _ticks(xlo, xhi):
        parts.append(
            f'<line x1="{sx(xv):.2f}" y1="{_MT + plot_h}" x2="{sx(xv):.2f}" '
            f'y2="{_MT + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{_MT + plot_h + 20}" '
            'font-family="sans-serif" font-size="12" '
            f'text-anchor="middle">{xv:g}</text>'
        )
    for yv in _ticks(ylo, yhi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{sy(yv):.2f}" x2="{_ML}" '
            f'y2="{sy(yv):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{sy(yv):.2f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end" dominant-baseline="middle">'
            f"{yv:.3g}</text>"
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.0f}" y="{_SVG_H - 12}" '
        'font-family="sans-serif" font-size="13" '
        'text-anchor="middle">frequency</text>'
    )
    # decimate long traces to keep files small; peaks survive because the
    # grid is much denser than any plotted feature
    stride = max(1, omega.size // 2000)
    px = sx(omega[::stride])
    template = " ".join(["%.2f,%.2f"] * px.size)
    for (label, color), vals in zip(_TRACES, series):
        pts = template % tuple(np.column_stack([px, sy(vals[::stride])]).ravel().tolist())
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
    for i, (label, color) in enumerate(_TRACES):
        y = _MT + 16 + 18 * i
        x = _SVG_W - _MR - 70
        parts.append(
            f'<line x1="{x}" y1="{y}" x2="{x + 24}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x + 30}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    with _atomic_open(path) as fh:
        fh.write(("\n".join(parts) + "\n").encode())
