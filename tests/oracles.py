"""Independent reference formulas for the tests (numpy only).

:func:`landauer_transmission` is the transport trace through the photon
port.  :func:`resolvent_green` is the photon Green function of a line
model as the photon element of the resolvent of one coupled-oscillator
matrix, diagonalized once: an oracle that shares no step with the
package's pole sum and propagator.
"""

import numpy as np

from polarispec.core import RealSpectrum


def landauer_transmission(D, cav) -> RealSpectrum:
    """Transmission as a transport trace through the photon port.

    With both port coupling matrices of rank one on the photon entry the
    trace Tr[Gamma_L G^dag Gamma_R G] collapses to
    kappa_L * kappa_R * D* D, which is evaluated here literally as the
    conjugate product (an independent path from the |D|^2 route of the
    port formulas).
    """
    v = D.values
    trace = cav.kappa_L * (np.conj(v) * cav.kappa_R * v)
    return RealSpectrum(D.grid, trace.real)


def resolvent_green(ts, cav, omega):
    """D(w) = [(w - H)^-1]_00 of the coupled-oscillator matrix, and cond(V).

    H is the (K+1) x (K+1) non-Hermitian arrowhead

        H = [[omega_ph - i kappa/2, sqrt(s_k)], [sqrt(s_k), diag(omega_k - i gamma_k/2)]]

    of the photon and the K lines of ``ts``, s_k = (p_y - p_z) * weight_k.
    One ``np.linalg.eig`` gives H = V diag(lam) V^-1, so
    D(w) = sum_j r_j / (w - lam_j), with the polaritons lam_j and their
    photon weights r_j.  H is complex symmetric, so V^-1 is V^T with each
    column v scaled by 1 / (v^T v): r_j = v_0**2 / (v^T v), and each lam_j
    is taken as the Rayleigh quotient v^T H v / (v^T v), whose rounding
    scales with the entries v spans rather than with all of H.  The pole
    expansion loses digits as V nears singular (an exceptional point), so
    the caller judges each result by cond(V).
    """
    s = (ts.p_y - ts.p_z) * ts.weight
    k = s.size
    h = np.zeros((k + 1, k + 1), dtype=complex)
    h[0, 0] = cav.omega_ph - 0.5j * cav.kappa
    h[0, 1:] = h[1:, 0] = np.sqrt(s.astype(complex))
    h[np.arange(1, k + 1), np.arange(1, k + 1)] = ts.omega_zy - 0.5j * ts.gamma
    v = np.linalg.eig(h)[1]
    norm = (v * v).sum(axis=0)
    lam = (v * (h @ v)).sum(axis=0) / norm
    r = v[0] ** 2 / norm
    return (r / (omega[:, None] - lam)).sum(axis=1), np.linalg.cond(v)
