"""Linear inversion of resonance-shift maps back to per-site spin moments.

For collinear spins along z the axial resonance shift is linear in the
per-site moments m_z: exchange rows of the forward kernel are J(r)/h,
dipolar rows are the probe Zeeman shift of the per-moment stray-field
z-component.  One thin SVD A = U diag(s) V^T serves both the
conditioning report and the Tikhonov solution at any lam, through the
filter factors s / (s^2 + lam) (Hansen, Rank-Deficient and Discrete
Ill-Posed Problems, SIAM 1998).  The report quantifies how ill-posed
each mode is: the dipolar kernel at large height has a near-null space,
so its inversion is effectively non-unique.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .constants import CONSTANTS
from .scan import Grid, _check_height, _walk_pairs
from .texture import SpinTexture

__all__ = [
    "ForwardOperator",
    "ConditioningReport",
    "ReconstructionResult",
    "build_forward",
    "solve_tikhonov",
    "conditioning_report",
    "lcurve",
]

_RANK_DEFICIENT_RATIO = 1e-12

# Largest (pixels x sites) float64 kernel build_forward assembles, checked
# before allocating; assembly holds several temporaries of that size.
_MAX_KERNEL_BYTES = 1 << 26


@dataclass(frozen=True)
class ForwardOperator:
    """Kernel A (pixels x sites, GHz per unit z-moment) on its scan grid."""

    a: np.ndarray
    grid: Grid


@dataclass(frozen=True)
class ConditioningReport:
    """Singular-value summary of a kernel; near_null_vector witnesses
    the least-observable unit moment pattern."""

    sigma_max: float
    sigma_min: float
    cond: float
    near_null_vector: np.ndarray

    @property
    def rank_deficient(self) -> bool:
        return self.sigma_min <= _RANK_DEFICIENT_RATIO * self.sigma_max


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered per-site moments plus solver and conditioning details;
    iterations is always 0, since the solve is direct."""

    m_z: np.ndarray
    residual_norm: float
    lam: float
    iterations: int
    report: ConditioningReport


def _check_collinear(tex: SpinTexture) -> None:
    transverse = np.abs(tex.spin_dirs[:, :2]).max() if tex.spin_mag > 0 else 0.0
    if transverse > 1e-9:
        raise ValueError(
            "reconstruction assumes a collinear texture along z; this texture "
            f"has transverse spin components up to {transverse:.3g}. Project "
            "or rotate the texture so every spin points along +/- z."
        )


def build_forward(
    tex: SpinTexture,
    x_range,
    y_range,
    step: float,
    height: float,
    mode: str,
    exchange_prefactor: str = "rydberg",
    g_probe: float = CONSTANTS.g_e_default,
) -> ForwardOperator:
    """Assemble the linear map from per-site m_z to resonance shift (GHz).

    Exchange mode: A[p, i] = J(|tip_p - r_i|) / h.  Dipolar mode:
    A[p, i] = g_probe mu_B Bz_i(tip_p) / h with Bz_i the stray-field
    z-component of a unit z-moment at site i.  Mode "both" sums the two.
    The texture provides geometry and the sample g; it must be collinear
    along z for the shift to be linear in m_z.
    """
    _check_collinear(tex)
    _check_height(height, "height")
    if mode not in ("dipolar", "exchange", "both"):
        raise ValueError(f"unknown forward mode {mode!r}")

    grid = Grid.from_ranges(x_range, y_range, step)
    n_pixels = grid.nx * grid.ny
    if 8 * n_pixels * tex.n_sites > _MAX_KERNEL_BYTES:
        raise ValueError(
            f"forward kernel of {n_pixels} pixels x {tex.n_sites} sites "
            f"exceeds the {_MAX_KERNEL_BYTES >> 20} MiB budget; use a larger "
            "step or a smaller range"
        )
    a = np.zeros((n_pixels, tex.n_sites))
    zeeman = g_probe * CONSTANTS.mu_b

    def fill_block(rows, dx, dy, dz, d2, j, pref):
        if mode in ("exchange", "both"):
            a[rows] += j / CONSTANTS.h_planck
        if mode in ("dipolar", "both"):
            # Bz of a unit z-moment is pref (3 dz^2 / d^2 - 1).
            bz = pref * (3.0 * dz * dz / d2 - 1.0)
            a[rows] += zeeman * bz / CONSTANTS.h_planck

    _walk_pairs(grid.tips(float(height)), tex, exchange_prefactor, fill_block)

    if not np.all(np.isfinite(a)):
        raise ArithmeticError("forward kernel contains non-finite entries")
    return ForwardOperator(a=a, grid=grid)


def _factor(a: np.ndarray):
    """Thin SVD of the kernel.  With fewer pixels than sites all of V^T is
    kept, so its last rows span the null space."""
    return np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])


def _report(factors) -> ConditioningReport:
    _, s, vt = factors
    sigma_max = float(s[0])
    sigma_min = float(s[-1]) if s.size == vt.shape[0] else 0.0
    return ConditioningReport(
        sigma_max=sigma_max,
        sigma_min=sigma_min,
        cond=sigma_max / sigma_min if sigma_min > 0 else float("inf"),
        near_null_vector=vt[-1],
    )


def conditioning_report(a) -> ConditioningReport:
    """Extremal singular values of the kernel and the right singular
    vector of the smallest one."""
    mat = a.a if isinstance(a, ForwardOperator) else np.asarray(a, dtype=float)
    return _report(_factor(mat))


def _prepare(fwd: ForwardOperator, y, lambdas):
    """Checked observation vector and lam values, plus the kernel's SVD."""
    lambdas = [float(lam) for lam in lambdas]
    if not all(0.0 <= lam < np.inf for lam in lambdas):
        raise ValueError(f"regularization strength must be finite and >= 0: {lambdas}")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != fwd.a.shape[0]:
        raise ValueError(
            f"observation vector has {y.size} entries, kernel has "
            f"{fwd.a.shape[0]} pixels"
        )
    return y, lambdas, _factor(fwd.a)


def _filtered(a: np.ndarray, factors, y: np.ndarray, lam: float):
    """Tikhonov solution from the SVD factors, and its residual norm; at
    lam = 0 components with s <= _RANK_DEFICIENT_RATIO s_max are dropped."""
    u, s, vt = factors
    if lam == 0.0:
        keep = s > _RANK_DEFICIENT_RATIO * s[0]
        gain = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    else:
        gain = s / (s * s + lam)
    m = vt[: s.size].T @ (gain * (u.T @ y))
    return m, float(np.linalg.norm(a @ m - y))


def solve_tikhonov(fwd: ForwardOperator, y, lam: float) -> ReconstructionResult:
    """Minimize ||A m - y||^2 + lam ||m||^2 over per-site moments m.

    m = V diag(s / (s^2 + lam)) U^T y from one SVD of A.  With lam = 0
    this is the minimum-norm least-squares solution; a rank-deficient
    kernel draws a warning, since the minimizer is then not unique.
    """
    y, (lam,), factors = _prepare(fwd, y, [lam])
    report = _report(factors)
    if lam == 0.0 and report.rank_deficient:
        warnings.warn(
            "lam = 0 with a rank-deficient kernel "
            f"(cond = {report.cond:.3e}); solution is not unique",
            stacklevel=2,
        )
    m, residual = _filtered(fwd.a, factors, y, lam)
    return ReconstructionResult(
        m_z=m, residual_norm=residual, lam=lam, iterations=0, report=report
    )


def lcurve(fwd: ForwardOperator, y, lambdas) -> list:
    """Tabulate (lam, residual norm, solution norm) over a lam grid.

    One SVD serves every lam, and each row equals what solve_tikhonov
    returns.  A plain sampling helper for manual regularization choice;
    no corner detection or automatic selection.
    """
    y, lambdas, factors = _prepare(fwd, y, lambdas)
    rows = []
    for lam in lambdas:
        m, residual = _filtered(fwd.a, factors, y, lam)
        rows.append((lam, residual, float(np.linalg.norm(m))))
    return rows
