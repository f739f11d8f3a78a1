"""Reference computations and output checks for the polarispec benchmark.

Every reference here is computed apart from the package: closed forms,
scipy's Faddeeva function and peak finder, and exact geometric sums of the
trapezoid rule.  A check that fails raises :class:`CheckError`.  The one
program fault the benchmark keeps as a counted failure (the plateau case
of ``core.local_maxima``) raises :class:`KnownFault` instead.  README.md
gives the derivation of every tolerance.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.signal import find_peaks
from scipy.special import wofz


class CheckError(Exception):
    """An output disagrees with its reference."""


class KnownFault(Exception):
    """An output shows a program fault the benchmark counts as a failed op."""


class OpFailed(Exception):
    """The program reported an error instead of a result."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# CSV reader (independent of the package's np.loadtxt reader)


def read_csv(path: str, header: str) -> np.ndarray:
    """Parse a numeric CSV under an exact header into an (n, columns) array.

    Streams the file in blocks of about 4 MB so that checking a 1e6-row
    file adds little to the process's peak memory.  Each field goes
    through Python's correctly rounded float parser.
    """
    ncols = header.count(",") + 1
    blocks = []
    with open(path, "rb") as fh:
        first = fh.readline().rstrip(b"\n").decode()
        require(first == header, f"{path}: header {first!r}, expected {header!r}")
        while True:
            lines = fh.readlines(1 << 22)
            if not lines:
                break
            fields = b",".join(line.rstrip(b"\n") for line in lines).split(b",")
            require(len(fields) % ncols == 0, f"{path}: ragged rows")
            blocks.append(np.array(fields, dtype=np.float64).reshape(-1, ncols))
    require(blocks, f"{path}: no rows")
    return np.concatenate(blocks)


def check_round_trip(parsed: np.ndarray, expected: np.ndarray, what: str) -> None:
    """The file holds exactly the float64 values the program computed."""
    require(
        parsed.shape == expected.shape and np.array_equal(parsed, expected),
        f"{what}: the CSV does not hold the program's float64 values exactly",
    )


# ---------------------------------------------------------------------------
# Susceptibility references


def thermal_factor(beta: float, omega0: float) -> float:
    return 1.0 if math.isinf(beta) else math.tanh(0.5 * beta * omega0)


def chi_poles(omega, poles) -> np.ndarray:
    """Sum of -w / (omega - omega_k + i gamma_k / 2) over (omega_k, w, gamma_k)."""
    out = np.zeros(omega.size, dtype=complex)
    for w0, weight, gamma in poles:
        out -= weight / (omega - w0 + 0.5j * gamma)
    return out


def chi_voigt(omega, ngg: float, center: float, sigma: float, gamma: float):
    """Gaussian-disordered line through scipy's Faddeeva function."""
    z = (omega - center + 0.5j * gamma) / (sigma * math.sqrt(2.0))
    return 1j * ngg * math.sqrt(0.5 * math.pi) / sigma * wofz(z)


def poisson_poles(ngg, omega_exc, omega_v, s, gamma):
    """Franck-Condon progression with weights exp(-S) S^k / k!.

    Lines are kept until past the maximum the weight falls below 1e-18 of
    the total; the package truncates its tail at 1e-12.
    """
    require(s > 0, "reference progression needs a Huang-Rhys factor > 0")
    poles, k = [], 0
    while True:
        weight = math.exp(-s + k * math.log(s) - math.lgamma(k + 1))
        if k > s and weight < 1e-18:
            return poles
        poles.append((omega_exc - s * omega_v + k * omega_v, ngg * weight, gamma))
        k += 1


def chi_of_model(model: dict, omega) -> np.ndarray:
    """Reference chi of a scenario ``model`` object (the JSON form)."""
    kind = model["kind"]
    if kind == "tls":
        beta = math.inf if model["beta"] == "inf" else float(model["beta"])
        ngg = model["n_emitters"] * model["g"] ** 2
        w0 = model["omega_exc"]
        return chi_poles(omega, [(w0, ngg * thermal_factor(beta, w0), model["gamma"])])
    if kind == "disordered_tls":
        d = model["disorder"]
        ngg = model["n_emitters"] * model["g"] ** 2
        if d["kind"] == "lorentzian":
            # averaging the pole over a Lorentzian of FWHM sigma closes the
            # contour on x = c - i sigma/2: the widths add
            return chi_poles(omega, [(d["center"], ngg, model["gamma"] + d["sigma"])])
        return chi_voigt(omega, ngg, d["center"], d["sigma"], model["gamma"])
    if kind == "vibronic":
        ngg = model["n_emitters"] * model["g"] ** 2
        return chi_poles(
            omega,
            poisson_poles(ngg, model["omega_exc"], model["omega_v"], model["huang_rhys"], model["gamma"]),
        )
    if kind == "multilevel":
        scale = model["n_emitters"] * model["g_scale"] ** 2
        levels = model["levels"]
        poles = []
        for y, z, amp in model["dipoles"]:
            (w_y, p_y), (w_z, p_z) = levels[y - 1], levels[z - 1]
            if w_z > w_y:
                poles.append((w_z - w_y, (p_y - p_z) * scale * amp**2, model["gamma"]))
        return chi_poles(omega, poles)
    if kind == "tabulated_chi" and model["path"] is None:
        return np.zeros(omega.size, dtype=complex)
    raise CheckError(f"no reference chi for model kind {kind!r}")


def beta_eff_of_lines(omega, lines) -> np.ndarray:
    """ln[C(w)/C(-w)]/w from (omega_k, weight, p_low, p_high, gamma) lines."""
    num = np.zeros(omega.size)
    den = np.zeros(omega.size)
    for w0, weight, p_y, p_z, gamma in lines:
        kern = weight * gamma / ((omega - w0) ** 2 + 0.25 * gamma**2)
        num += p_y * kern
        den += p_z * kern
    with np.errstate(divide="ignore"):
        return np.where(den > 0, np.log(num / np.where(den > 0, den, 1.0)) / omega, np.inf)


# ---------------------------------------------------------------------------
# Cavity spectra


def port_spectra(omega, chi, cavity: dict):
    """T, R, A from the port formulas of D = 1/(w - w_c + i kappa/2 + chi)."""
    kl, kr = cavity["kappa_L"], cavity["kappa_R"]
    d = 1.0 / (omega - cavity["omega_ph"] + 0.5j * (kl + kr) + chi)
    mag2 = d.real**2 + d.imag**2
    return (
        kl * kr * mag2,
        1.0 + 2.0 * kl * d.imag + kl**2 * mag2,
        -kl * ((kl + kr) * mag2 + 2.0 * d.imag),
    )


def check_energy(T, R, A, what: str) -> None:
    """T + R + A = 1 pointwise and passivity 0 <= T <= 1."""
    worst = float(np.abs(T + R + A - 1.0).max())
    require(worst <= 1e-12, f"{what}: max |T+R+A-1| = {worst:.3e} > 1e-12")
    require(T.min() >= 0.0 and T.max() <= 1.0 + 1e-12, f"{what}: T outside [0, 1]")


def check_port(T, R, A, reference, what: str, rel: float = 1e-8) -> None:
    """T within ``rel`` of the reference, R and A within 1e-8 absolute."""
    t_ref, r_ref, a_ref = reference
    dev = float((np.abs(T - t_ref) / t_ref).max())
    require(dev <= rel, f"{what}: max rel |T - T_ref| = {dev:.3e} > {rel:.0e}")
    dev = max(float(np.abs(R - r_ref).max()), float(np.abs(A - a_ref).max()))
    require(dev <= 1e-8, f"{what}: max |R, A - ref| = {dev:.3e} > 1e-8")


# ---------------------------------------------------------------------------
# Peaks


_MAXIMA = re.compile(r"^transmission maxima: (\d+)(?: at (.*))?$", re.M)


def reference_peaks(T) -> np.ndarray:
    """scipy's peaks with the package's documented prominence (1e-3 of max).

    Unlike the strict-rise rule, scipy reports a flat top (equal samples)
    as one peak, at the left sample of a two-sample plateau.
    """
    idx, _ = find_peaks(T, prominence=1e-3 * T.max())
    return idx


def check_peaks(stdout: str, omega, T, what: str, expected: int | None = None) -> None:
    """Printed maxima match the reference peaks of the written T.

    Positions are compared as the printed ``%+.6g`` text of the first
    eight peaks, so on a 1e5-point grid a shift by one grid point shows.
    """
    m = _MAXIMA.search(stdout)
    require(m is not None, f"{what}: no 'transmission maxima' line in output")
    count = int(m.group(1))
    tokens = (m.group(2) or "").split()
    ref = reference_peaks(T)
    if expected is not None:
        require(ref.size == expected, f"{what}: reference finds {ref.size} peaks, expected {expected}")
    if count != ref.size:
        flat = [int(i) for i in ref if T[i + 1] == T[i] or T[i - 1] == T[i]]
        if flat and count == ref.size - len(flat):
            i = flat[0]
            raise KnownFault(
                f"core.local_maxima needs a strict rise on both sides and skips a peak "
                f"whose top two samples are equal: T = {float(T[i])!r} at omega = {omega[i]:+.6g}"
                f" and {omega[i + 1]:+.6g}; printed {count} maxima, reference {ref.size}"
            )
        raise CheckError(f"{what}: printed {count} maxima, reference finds {ref.size}")
    want = [f"{omega[i]:+.6g}" for i in ref[:8]]
    require(tokens == want, f"{what}: printed maxima {tokens}, reference {want}")


def splitting(omega, T) -> float:
    ref = reference_peaks(T)
    return float(omega[ref[-1]] - omega[ref[0]]) if ref.size >= 2 else 0.0


# ---------------------------------------------------------------------------
# Finite bath


def schur_transmission(omega, cavity: dict, modes) -> np.ndarray:
    """Photon element of the arrowhead inverse in closed form.

    D = 1/(w - w_c + i kappa/2 - sum_k g_k^2/(w - w_k + i gamma_k/2)),
    with ``modes`` an (M, 3) array of (omega_k, g_k, gamma_k).
    """
    kl, kr = cavity["kappa_L"], cavity["kappa_R"]
    sigma = np.zeros(omega.size, dtype=complex)
    for wk, gk, gam in modes:
        sigma += gk * gk / (omega - wk + 0.5j * gam)
    d = 1.0 / (omega - cavity["omega_ph"] + 0.5j * (kl + kr) - sigma)
    return kl * kr * (d.real**2 + d.imag**2)


def trapezoid(values, spacing: float) -> float:
    return float(spacing * (values.sum() - 0.5 * (values[0] + values[-1])))


def check_sum_rule(modes, J, spacing: float, what: str) -> None:
    """Sum of g_k^2 equals (1/pi) times the trapezoid integral of J."""
    total = float((modes[:, 1] ** 2).sum())
    ref = trapezoid(J, spacing) / math.pi
    require(
        abs(total - ref) <= 1e-12 * ref,
        f"{what}: sum g_k^2 = {total!r}, (1/pi) int J = {ref!r}",
    )


def check_finite_bath(omega, T, cavity: dict, modes, what: str) -> None:
    """T of the dense solve matches the arrowhead Schur complement."""
    dev = float(np.abs(T - schur_transmission(omega, cavity, modes)).max())
    require(dev <= 1e-12, f"{what}: max |T - T_schur| = {dev:.3e} > 1e-12")


# ---------------------------------------------------------------------------
# Bath dictionary: exact trapezoid sums and continuum closed forms


def trapezoid_geometric(q, dt: float, n_times: int):
    """Trapezoid sum dt * sum_k c_k q^k over k = 0..n-1 with half end weights."""
    last = n_times - 1
    return dt * ((1.0 - q ** (last + 1)) / (1.0 - q) - 0.5 * (1.0 + q**last))


def two_pole_correlation(t, lines):
    """C(t) = sum a_l exp((-i w_l - gamma_l/2) t) over (w_l, a_l, gamma_l)."""
    out = np.zeros(t.size, dtype=complex)
    for wl, al, gl in lines:
        out += al * np.exp((-1j * wl - 0.5 * gl) * t)
    return out


def chi_of_sampled_correlation(omega, lines, dt: float, n_times: int):
    """i [F(w) - conj F(-w)] with F the trapezoid sum of the sampled C(t)."""

    def f(w):
        return sum(
            al * trapezoid_geometric(np.exp((1j * (w - wl) - 0.5 * gl) * dt), dt, n_times)
            for wl, al, gl in lines
        )

    return 1j * (f(omega) - np.conj(f(-omega)))


def chi_of_correlation_continuum(omega, lines):
    """Continuum transform: sum -a/(w - w_l + i g/2) + a/(w + w_l + i g/2)."""
    return sum(
        -al / (omega - wl + 0.5j * gl) + al / (omega + wl + 0.5j * gl) for wl, al, gl in lines
    )


def euler_maclaurin_bound(omega, lines, dt: float):
    """Leading trapezoid error of chi: 2 x sum |a| dt^2 |s| / 12 at +-omega."""
    out = np.zeros(omega.size)
    for wl, al, gl in lines:
        for sign in (1.0, -1.0):
            s = np.abs(1j * (sign * omega - wl) - 0.5 * gl)
            out += abs(al) * dt**2 * s / 12.0
    return 2.0 * out


def density_of_sampled_correlation(omega, lines, dt: float, n_times: int):
    """-2 sum_k w_k Im C(t_k) sin(w t_k) as geometric sums (real a_l)."""
    u = np.exp(1j * omega * dt)
    out = np.zeros(omega.size, dtype=complex)
    for wl, al, gl in lines:
        r = np.exp((-1j * wl - 0.5 * gl) * dt)
        rc = np.conj(r)
        g = trapezoid_geometric
        out += 0.5 * al * (g(r * u, dt, n_times) - g(r / u, dt, n_times)
                           - g(rc * u, dt, n_times) + g(rc / u, dt, n_times))
    return out.real


def lorentzian_density(omega, amplitude: float, w0: float, gamma: float):
    """A (gamma/2) [1/((w-w0)^2+gamma^2/4) - 1/((w+w0)^2+gamma^2/4)]."""
    h = 0.5 * gamma
    return amplitude * h * (1.0 / ((omega - w0) ** 2 + h * h) - 1.0 / ((omega + w0) ** 2 + h * h))


def chi_of_lorentzian_density(omega, amplitude, w0, gamma, lo, hi, gamma_reg):
    """-(1/pi) int_lo^hi J(x)/(|w| - x + i gamma_reg/2) dx in closed form.

    Each Lorentzian is split into two simple poles p = c -+ i gamma/2, and
    int dx / ((x - p)(z - x)) = [log(x - p) - log(z - x)] / (z - p); the
    principal logs are continuous along the real path since neither
    imaginary part changes sign.  Negative frequencies use the reflection
    chi(-w) = conj chi(w); chi(0) is real.
    """
    z = np.abs(omega) + 0.5j * gamma_reg

    def pole(p):
        return (np.log(hi - p) - np.log(lo - p) - np.log(z - hi) + np.log(z - lo)) / (z - p)

    h = 0.5j * gamma
    total = (pole(w0 + h) - pole(w0 - h) - pole(-w0 + h) + pole(-w0 - h)) / 2j
    chi = -(amplitude / math.pi) * total
    chi = np.where(omega < 0, np.conj(chi), chi)
    return np.where(omega == 0, chi.real, chi)


def check_close(values, reference, tol: float, what: str) -> None:
    """max |values - reference| <= tol * max |reference|."""
    scale = float(np.abs(reference).max())
    dev = float(np.abs(values - reference).max())
    require(dev <= tol * scale, f"{what}: max deviation {dev:.3e} > {tol:.0e} x {scale:.3e}")


def check_mirror(omega, chi, what: str) -> None:
    """chi(-w) = conj chi(w) on a mirror-exact grid, and chi(0) real."""
    require(np.array_equal(omega[::-1], -omega), f"{what}: grid is not mirror-exact")
    dev = float(np.abs(chi[::-1] - np.conj(chi)).max())
    require(dev <= 1e-15 * float(np.abs(chi).max()), f"{what}: chi(-w) != conj chi(w) ({dev:.3e})")
    zero = chi[omega == 0]
    require(zero.size == 1 and zero.imag[0] == 0.0, f"{what}: chi(0) is not real")
