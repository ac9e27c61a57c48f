"""Independent reference physics for checking the benchmark's outputs.

Rebuilt from the formulas in the project README and the CODATA-2018 SI
values, without importing any part of spinscan, so that a fault in the
program's own kernels cannot hide behind a check that reuses them.

Units follow the README: angstrom, ueV, tesla, GHz.  Every function is
vectorised over tip positions; site arrays are (n, 3).
"""

from __future__ import annotations

import math

import numpy as np

# CODATA-2018 SI values.
E_CHARGE_C = 1.602176634e-19
H_PLANCK_JS = 6.62607015e-34
MU_B_J_PER_T = 9.2740100783e-24
MU0_SI = 1.25663706212e-6
RYDBERG_EV = 13.605693122994
BOHR_RADIUS_A = 0.529177210903

H_UEV_PER_GHZ = H_PLANCK_JS / E_CHARGE_C * 1e15      # ueV per GHz
MU_B_UEV_PER_T = MU_B_J_PER_T / E_CHARGE_C * 1e6     # ueV per tesla
# (mu0 / 4 pi) mu_B in T A^3 (1 m^3 = 1e30 A^3).
MU0_MU_B_OVER_4PI = MU0_SI / (4.0 * math.pi) * MU_B_J_PER_T * 1e30

# Spin-1 matrices in the basis m = +1, 0, -1.
_R2 = 1.0 / math.sqrt(2.0)
SX = np.array([[0, _R2, 0], [_R2, 0, _R2], [0, _R2, 0]], dtype=complex)
SY = np.array([[0, -1j * _R2, 0], [1j * _R2, 0, -1j * _R2], [0, 1j * _R2, 0]])
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


def exchange_j(r):
    """J(r) = 1.641 E0 (r/a_B)^2.5 exp(-2 r/a_B) in ueV, E0 = Rydberg."""
    x = np.asarray(r, dtype=float) / BOHR_RADIUS_A
    return 1.641 * RYDBERG_EV * 1e6 * x**2.5 * np.exp(-2.0 * x)


def _displacements(tips, sites):
    d = np.asarray(tips, dtype=float)[:, None, :] - np.asarray(sites, dtype=float)[None]
    return d, np.sqrt(np.sum(d * d, axis=2))


def stray_field(tips, sites, spins, g_sample):
    """Summed dipolar field (tesla) at each tip.

    B = -(mu0 g mu_B / 4 pi r^3) (3 rhat (m . rhat) - m), summed over
    sites, with m the classical spin vectors.
    """
    d, r = _displacements(tips, sites)
    rhat = d / r[..., None]
    m_dot_r = np.einsum("pnk,nk->pn", rhat, spins)
    terms = 3.0 * rhat * m_dot_r[..., None] - np.asarray(spins)[None]
    return np.sum(-g_sample * MU0_MU_B_OVER_4PI / r[..., None] ** 3 * terms, axis=1)


def exchange_field(tips, sites, spins):
    """b_ex = sum_i J(|tip - r_i|) m_i in ueV at each tip."""
    _, r = _displacements(tips, sites)
    return exchange_j(r) @ np.asarray(spins, dtype=float)


def probe_hamiltonians(b_tesla, b_ex_uev, d_zfs_uev=14.4, g_probe=2.0023):
    """(p, 3, 3) H = D (Sz^2 - 2/3) + g_p mu_B B . S + b_ex . S in ueV."""
    e = g_probe * MU_B_UEV_PER_T * np.asarray(b_tesla) + np.asarray(b_ex_uev)
    h0 = d_zfs_uev * (SZ @ SZ - (2.0 / 3.0) * np.eye(3))
    return (h0[None] + e[:, 0, None, None] * SX + e[:, 1, None, None] * SY
            + e[:, 2, None, None] * SZ)


def resonances(h):
    """(f_minus, f_plus) in GHz from stacked 3x3 probe Hamiltonians.

    The reference state is the eigenstate with the largest weight on
    m = 0, ties going to the lower energy; the resonances are the other
    two states' |E - E_ref| / h, sorted.
    """
    energies, vectors = np.linalg.eigh(h)
    weight = np.abs(vectors[:, 1, :]) ** 2
    ref = np.argmax(weight, axis=1)
    rows = np.arange(h.shape[0])
    gaps = np.abs(energies - energies[rows, ref][:, None])
    gaps[rows, ref] = np.inf
    gaps.sort(axis=1)
    return gaps[:, 0] / H_UEV_PER_GHZ, gaps[:, 1] / H_UEV_PER_GHZ


def scan_resonances(tips, sites, spins, g_sample, mode):
    """Resonance pair at each tip for mode 'exchange', 'dipolar' or 'both'."""
    tips = np.asarray(tips, dtype=float)
    b = np.zeros((tips.shape[0], 3))
    b_ex = np.zeros((tips.shape[0], 3))
    if mode in ("dipolar", "both"):
        b = stray_field(tips, sites, spins, g_sample)
    if mode in ("exchange", "both"):
        b_ex = exchange_field(tips, sites, spins)
    return resonances(probe_hamiltonians(b, b_ex))


def axial_kernel(tips, sites, mode, g_sample=2.0, g_probe=2.0023):
    """(p, n) GHz shift of the upper branch per unit z-moment at each site.

    Exchange rows are J/h; dipolar rows are g_p mu_B Bz/h with Bz the
    field of a unit z-moment, -(mu0 g mu_B / 4 pi r^3)(3 rhat_z^2 - 1).
    """
    d, r = _displacements(tips, sites)
    if mode == "exchange":
        return exchange_j(r) / H_UEV_PER_GHZ
    cos_z = d[:, :, 2] / r
    bz = -g_sample * MU0_MU_B_OVER_4PI / r**3 * (3.0 * cos_z**2 - 1.0)
    return g_probe * MU_B_UEV_PER_T * bz / H_UEV_PER_GHZ


def shot_noise_center_sigma(baseline, contrast, fwhm, f_step):
    """Cramer-Rao standard error (GHz) of a Lorentzian dip centre.

    Counts N (1 - C L(f - f0)) with Poisson variance ~N, sampled every
    f_step over a window much wider than the line: the Fisher information
    is N C^2 pi / (4 gamma f_step) with gamma = fwhm / 2.
    """
    gamma = fwhm / 2.0
    return math.sqrt(4.0 * gamma * f_step / (math.pi * baseline * contrast**2))
