"""Spin operator algebra, interaction Hamiltonians, and resonance extraction.

Everything here is a pure function of its inputs.  Matrices are dense
complex numpy arrays in the |s, m> basis ordered m = s, s-1, ..., -s, so
Sz is diagonal with entries (s, ..., -s) and the m = 0 state of a spin-1
sits at basis index 1.  Energies are in ueV, fields in tesla, lengths in
angstrom, frequencies in GHz.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import CONSTANTS

__all__ = [
    "SpinOperatorSet",
    "ProbeSpec",
    "EigenDecomposition",
    "ResonancePair",
    "spin_operators",
    "zfs_hamiltonian",
    "zeeman_hamiltonian",
    "exchange_pair_hamiltonian",
    "exchange_constant",
    "eigensolve",
    "probe_resonances",
]

_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class SpinOperatorSet:
    """Sx, Sy, Sz for spin quantum number s; dimension 2s + 1."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    @property
    def dim(self) -> int:
        return self.sx.shape[0]


@dataclass(frozen=True)
class ProbeSpec:
    """Probe defect parameters: spin-1 with zero-field splitting D (ueV)."""

    d_zfs: float = 14.4
    g: float = CONSTANTS.g_e_default
    s: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.d_zfs <= 0:
            raise ValueError(f"zero-field splitting must be positive, got {self.d_zfs}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending real eigenvalues (ueV) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ResonancePair:
    """Probe transition frequencies in GHz, sorted ascending."""

    f_minus: float
    f_plus: float


def spin_operators(s: float) -> SpinOperatorSet:
    """Build Sx, Sy, Sz for spin s via the standard ladder construction.

    s must be a positive half-integer.  Basis ordering m = s, ..., -s.
    """
    two_s = 2.0 * s
    if s <= 0 or abs(two_s - round(two_s)) > 1e-12:
        raise ValueError(f"spin quantum number must be a positive half-integer, got {s}")
    dim = int(round(two_s)) + 1
    m = s - np.arange(dim)
    # <m+1| S+ |m> = sqrt(s(s+1) - m(m+1)); entry (k, k+1) raises m[k+1] to m[k].
    raise_coeff = np.sqrt(s * (s + 1.0) - m[1:] * (m[1:] + 1.0))
    s_plus = np.diag(raise_coeff, k=1).astype(complex)
    s_minus = s_plus.conj().T
    sx = 0.5 * (s_plus + s_minus)
    sy = -0.5j * (s_plus - s_minus)
    sz = np.diag(m).astype(complex)
    return SpinOperatorSet(sx=sx, sy=sy, sz=sz)


def zfs_hamiltonian(probe: ProbeSpec) -> np.ndarray:
    """Zero-field splitting term D (Sz^2 - S(S+1)/3) for the spin-1 probe, ueV."""
    ops = spin_operators(probe.s)
    casimir = probe.s * (probe.s + 1.0)
    return probe.d_zfs * (ops.sz @ ops.sz - (casimir / 3.0) * np.eye(ops.dim))


def zeeman_hamiltonian(g: float, b_field, ops: SpinOperatorSet) -> np.ndarray:
    """Zeeman term g mu_B B . S with B in tesla; result in ueV."""
    b = np.asarray(b_field, dtype=float)
    return g * CONSTANTS.mu_b * (b[0] * ops.sx + b[1] * ops.sy + b[2] * ops.sz)


def exchange_pair_hamiltonian(
    j_uev: float, ops1: SpinOperatorSet, ops2: SpinOperatorSet
) -> np.ndarray:
    """Isotropic Heisenberg coupling J S1 . S2 on the tensor-product space, ueV."""
    return j_uev * (
        np.kron(ops1.sx, ops2.sx)
        + np.kron(ops1.sy, ops2.sy)
        + np.kron(ops1.sz, ops2.sz)
    )


def _check_exchange_range(r_min: float, stacklevel: int) -> None:
    """Reject r_min <= 0; warn once when r_min is below the validity range.

    stacklevel counts from the caller of this function, as in
    warnings.warn.
    """
    if r_min <= 0.0:
        raise ValueError(f"exchange constant requires r > 0, got {r_min}")
    if r_min < 2.0:
        warnings.warn(
            f"exchange constant evaluated at r = {r_min:g} A, below "
            "the 2 A validity range of the asymptotic form",
            stacklevel=stacklevel + 1,
        )


def _exchange_formula(r: np.ndarray, prefactor: str) -> np.ndarray:
    """J(r) in ueV without range checks; callers check the distances."""
    if prefactor == "rydberg":
        e0_uev = CONSTANTS.rydberg * 1e6
    elif prefactor == "hartree":
        e0_uev = CONSTANTS.hartree * 1e6
    else:
        raise ValueError(f"prefactor must be 'rydberg' or 'hartree', got {prefactor!r}")
    x = r / CONSTANTS.bohr_radius
    return 1.641 * e0_uev * x**2.5 * np.exp(-2.0 * x)


def exchange_constant(r, prefactor: str = "rydberg"):
    """Distance-dependent exchange constant J(r) in ueV, r in angstrom.

    J(r) = 1.641 E0 (r/a_B)^{5/2} exp(-2 r/a_B), the asymptotic
    hydrogenic surface-integral form.  E0 is e^2/2a_B (Rydberg) by
    default; prefactor="hartree" selects e^2/a_B instead.  The formula is
    an r >> a_B asymptote, so r below 2 angstrom draws a warning.

    Accepts a scalar or an ndarray of distances.
    """
    r_arr = np.asarray(r, dtype=float)
    if r_arr.size:
        # fmin skips NaN entries: a NaN distance neither raises nor warns.
        _check_exchange_range(float(np.fmin.reduce(r_arr, axis=None)), stacklevel=2)
    j = _exchange_formula(r_arr, prefactor)
    return float(j) if np.isscalar(r) else j


def _check_hermitian(h: np.ndarray) -> None:
    deviation = np.max(np.abs(h - h.conj().T))
    scale = max(np.max(np.abs(h)), 1.0)
    if deviation > _HERMITICITY_TOL * scale:
        raise ValueError(
            f"matrix is not Hermitian (max deviation {deviation:.3e})"
        )


def eigensolve(h: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    h = np.asarray(h)
    _check_hermitian(h)
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _batch_resonances(h: np.ndarray):
    """(f_minus, f_plus) GHz arrays of stacked (p, 3, 3) probe
    Hamiltonians in ueV, by the reference-state rule of probe_resonances."""
    eigenvalues, eigenvectors = np.linalg.eigh(h)
    overlap = np.abs(eigenvectors[:, 1, :]) ** 2
    # argmax returns the first maximum; eigenvalues ascend, so ties in
    # overlap already resolve toward the lower-energy state.
    ref = np.argmax(overlap, axis=1)
    e_ref = eigenvalues[np.arange(h.shape[0]), ref]
    diffs = np.sort(np.abs(eigenvalues - e_ref[:, None]), axis=1)
    # Column 0 is the reference state's zero self-difference.
    return diffs[:, 1] / CONSTANTS.h_planck, diffs[:, 2] / CONSTANTS.h_planck


def _field_resonances(e_vec: np.ndarray, d_zfs: float):
    """(f_minus, f_plus) GHz of the probe Hamiltonians D (Sz^2 - 2/3) + e . S
    for stacked (p, 3) energy vectors e in ueV, by the reference-state rule
    of probe_resonances, in closed form (_batch_resonances is its oracle).

    With a = D/3, z = e_z^2 and t = |e_perp|^2 / 2 the eigenvalues are the
    roots of lam^3 - p lam - q, p = 3a^2 + z + 2t, q = -2a(a^2 - z + t).
    The root of largest |lam| is isolated and exact to rounding in the
    trigonometric Cardano form (Kopp 2008); the other two are
    (-lam1 -+ delta)/2, with the splitting delta from the discriminant,
    written as a sum of non-negative terms.  The m = 0 weights come from
    the eigenvector-eigenvalue identity (Denton et al. 2022): the minor
    without m = 0 has eigenvalues a -+ e_z, and every gap is written in
    lam1 and delta, never as a difference of computed roots.  Each pixel
    works in units of max(a, |e_x|, |e_y|, |e_z|): no power overflows, and
    at |e_z| = D the pair keeps its weights, which in ueV are lost to
    rounding for some D (0.1 and 0.3 ueV), handing lam1 the reference.
    """
    k = np.maximum(d_zfs / 3.0, np.max(np.abs(e_vec), axis=1))
    a = d_zfs / 3.0 / k
    e_z = e_vec[:, 2] / k
    z = e_z * e_z
    t = 0.5 * ((e_vec[:, 0] / k) ** 2 + (e_vec[:, 1] / k) ** 2)
    p = 3.0 * a * a + z + 2.0 * t
    q = -2.0 * a * (a * a - z + t)
    r = np.sqrt(p / 3.0)
    lam1 = np.copysign(
        2.0 * r * np.cos(np.arccos(np.minimum(1.0, np.abs(q) / (2.0 * r**3))) / 3.0), q
    )
    # Discriminant / 4 = p^3 - 27 q^2 / 4; (lam1 - lam2)(lam1 - lam3) =
    # 3 lam1^2 - p >= 2p, since |lam1| >= sqrt(p).
    a9 = 9.0 * a * a
    disc = z * (a9 - z) ** 2 + t * (a9 * (t + 10.0 * z) + (8.0 * t + 12.0 * z) * t
                                    + 6.0 * z * z)
    delta = 2.0 * np.sqrt(disc) / (3.0 * lam1 * lam1 - p)
    # Roots: lam1, then the pair member nearer lam1 and the farther one;
    # their gaps to lam1 are (3|lam1| -+ delta)/2, to each other delta.
    half, sign = 0.5 * np.abs(lam1), np.sign(lam1)
    roots = np.stack([lam1, -sign * (half - 0.5 * delta), -sign * (half + 0.5 * delta)])
    near, far = 3.0 * half - 0.5 * delta, 3.0 * half + 0.5 * delta
    products = np.stack([near * far, -near * delta, far * delta])
    weights = np.divide(
        (roots - a - e_z) * (roots - a + e_z), products,
        out=np.zeros_like(products), where=products != 0.0,
    )
    # argmax over the roots in ascending order, so ties go to the lower
    # energy: far, near, lam1 when lam1 > 0, else lam1, near, far.
    up = lam1 > 0.0
    ref = np.argmax(np.where(up, weights[::-1], weights), axis=0)
    ref = np.where(up, 2 - ref, ref)
    # The reference's gaps to the two other roots.
    first = np.where(ref == 2, far, near)
    second = np.where(ref == 0, far, delta)
    scale = k / CONSTANTS.h_planck
    return np.minimum(first, second) * scale, np.maximum(first, second) * scale


def probe_resonances(h_probe: np.ndarray) -> ResonancePair:
    """Transition frequencies (GHz) of a 3x3 probe Hamiltonian in ueV.

    The reference state is the eigenstate with maximal |<m=0|psi>|^2
    (basis index 1); ties go to the lower-energy candidate.  The two
    resonances are |E_k - E_ref|/h for the remaining eigenstates, sorted
    ascending.  Overlap-based labeling keeps the branches continuous as
    transverse fields mix the m states.
    """
    h = np.asarray(h_probe)
    _check_hermitian(h)
    f_minus, f_plus = _batch_resonances(h[None])
    return ResonancePair(f_minus=float(f_minus[0]), f_plus=float(f_plus[0]))
