"""Linear inversion of resonance-shift maps back to per-site spin moments.

For collinear spins along z the axial resonance shift is linear in the
per-site moments m_z: exchange rows of the forward kernel are J(r)/h,
dipolar rows are the probe Zeeman shift of the per-moment stray-field
z-component.  One factorization per (kernel, observation) pair, for a
tall kernel the eigendecomposition of A^T A if cond(A) <= 30, else a tree
QR of [A | y] over L2-sized pixel blocks (TSQR, Demmel et al. 2012) first,
serves the conditioning report and the Tikhonov solution at any lam
through the filter factors s / (s^2 + lam) (Hansen, Rank-Deficient and
Discrete Ill-Posed Problems, SIAM 1998).
The operator keeps the last one; its kernel is read-only.  The report
quantifies how ill-posed each mode is: the dipolar kernel at large
height has a near-null space, so its inversion is effectively non-unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import warnings

import numpy as np

from .constants import CONSTANTS
from .scan import (_MAX_KERNEL_BYTES, _MODES, Grid, _check_height, _lattice_offsets,
                   _unit_spin_stray, _walk_pairs)
from .spincore import ProbeSpec, _check_exchange_range
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
# Largest cond(A) that _project factors through A^T A, whose error grows as
# cond^2 u: about 1e-13 at 30, inside the tests' 1e-12 oracle bound; 1e3 gives 1e-10.
_GRAM_COND = 30.0
# Leaf budget of _project's tree QR, a core's L2.  1 MiB was no faster than
# one QR of the whole kernel; 4 MiB was as fast, at a higher peak RSS.
_LEAF_BYTES = 2 << 20


@dataclass(frozen=True)
class ForwardOperator:
    """Kernel A (pixels x sites, GHz per unit z-moment) of one scan grid;
    A is read-only, so the factors kept for the last y cannot go stale."""

    a: np.ndarray
    _last: list = field(default_factory=list, init=False, repr=False, compare=False)


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

    On the pixel lattice (scan._lattice_offsets) one pair walk writes the
    image of a unit z-moment at the corner site over the grid of pixel-site
    offsets, and column i is a window of it.  Otherwise the walk, the
    gather's oracle, writes every site's row over the pixels: for sites at
    several z, tips under 2 A above them, offsets not whole steps
    (honeycomb, triangular) or more offsets than a quarter of the (pixel,
    site) pairs.  A is the read-only transpose of a (sites, pixels) buffer:
    QR leaves copy its row segments.
    """
    _check_collinear(tex)
    _check_height(height, "height")
    ProbeSpec(g=g_probe)  # refuses a g past spincore._MAX_G
    if mode not in _MODES:
        raise ValueError(f"unknown forward mode {mode!r}")

    grid = Grid.from_ranges(x_range, y_range, step)
    n_pixels = grid.nx * grid.ny
    if 8 * n_pixels * tex.n_sites > _MAX_KERNEL_BYTES:
        raise ValueError(
            f"forward kernel of {n_pixels} pixels x {tex.n_sites} sites "
            f"exceeds the {_MAX_KERNEL_BYTES >> 20} MiB budget; use a larger "
            "step or a smaller range"
        )
    zeeman = g_probe * CONSTANTS.mu_b
    # The gather walks the corner site over the offset grid, holding one image
    # row and its three tip planes, only where those fit in the kernel's bytes:
    # the budget above bounds both walks, and the gather walks 1/4 the pairs or less.
    found = _lattice_offsets(grid, tex, float(height))
    ix, iy, kernel, sites = found or (None, None, grid, tex)
    if 4 * kernel.nx * kernel.ny > n_pixels * tex.n_sites:
        found, kernel, sites = None, grid, tex
    buf = np.empty((sites.n_sites, kernel.nx * kernel.ny))

    def fill_block(rows, d, d2, j, pref, tmp):
        # tmp[0] = J/h + g mu_B Bz/h, each term only if the mode reads it,
        # with Bz of a unit z-moment in tmp[1] (tmp[0] is its scratch).
        if pref is not None:
            _unit_spin_stray(d, d2, pref, 2, tmp[0], {2: tmp[1]})
        np.divide(0.0 if j is None else j, CONSTANTS.h_planck, out=tmp[0])
        if pref is not None:
            bz = np.multiply(tmp[1], zeeman, out=tmp[1])
            tmp[0] += np.divide(bz, CONSTANTS.h_planck, out=bz)
        buf[:, rows] = tmp[0].T

    r_min = _walk_pairs(kernel.tips(float(height)), sites, exchange_prefactor, mode,
                        fill_block, 1 if mode == "exchange" else 2)
    _check_exchange_range(r_min, stacklevel=2)
    if found is not None:
        # Site i's window starts at (my-1-iy, mx-1-ix) of the offset grid.
        windows = np.lib.stride_tricks.sliding_window_view(
            buf.reshape(kernel.ny, kernel.nx), (grid.ny, grid.nx))
        buf = windows[kernel.ny - grid.ny - iy.astype(int),
                      kernel.nx - grid.nx - ix.astype(int)]

    if not np.all(np.isfinite(buf)):
        raise ArithmeticError("forward kernel contains non-finite entries")
    buf.flags.writeable = False
    return ForwardOperator(a=buf.reshape(tex.n_sites, n_pixels).T)


def _factor(a: np.ndarray):
    """Thin SVD of the kernel.  With fewer pixels than sites all of V^T is
    kept, so its last rows span the null space."""
    return np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])


def _project(a: np.ndarray, y: np.ndarray):
    """(s, V^T, c = U^T y, norm of y outside the range of U) for kernel a.
    A tall kernel with cond <= _GRAM_COND, read off the eigenvalues of A^T A,
    takes A^T A = V diag(s^2) V^T, accurate to cond^2 u (Yamamoto et al.,
    ETNA 44, 306, 2015): c = V^T A^T y / s, outside norm ||y - A V (c /
    s)||.  The cond of its first 8 columns, a lower bound on A's, refuses
    it before A^T A is formed.  Other tall kernels go QR first (Golub & Van Loan,
    Matrix Computations, 5.4) by a one-level tree QR of [A | y] (Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34, A206, 2012),
    backward stable like one Householder QR (Mori, Yamamoto & Zhang, Japan
    J. Indust. Appl. Math. 29, 111, 2012).  Equal leaves of at most
    _LEAF_BYTES, filled from row segments of a's (sites, pixels) base, fit
    in L2, so dgeqrf's unblocked tail (its last 128 columns) streams from
    cache.  One QR of the stacked leaf triangles gives r = [[R, (Q^T
    y)[:n]], [0, rho]], with |rho| the norm of y outside the range, free of
    cancellation; the SVD of the sites x sites R gives s, V^T and c.  Other
    kernels take _factor's thin SVD."""
    m, n = a.shape
    if m <= n:
        u, s, vt = _factor(a)
        c = u.T @ y
        return s, vt, c, float(np.linalg.norm(y - u @ c))
    e = np.linalg.eigvalsh(a[:, :8].T @ a[:, :8])
    if 0.0 < e[0] and e[-1] <= _GRAM_COND ** 2 * e[0]:
        e, v = np.linalg.eigh(a.T @ a)
        if 0.0 < e[0] and e[-1] <= _GRAM_COND ** 2 * e[0]:
            s, vt = np.sqrt(e[::-1]), v[:, ::-1].T
            c = (vt @ (a.T @ y)) / s
            return s, vt, c, float(np.linalg.norm(y - a @ (vt.T @ (c / s))))
        del e, v  # before the tree's leaves
    n_leaves = -(-8 * m * (n + 1) // _LEAF_BYTES)
    rows = -(-m // n_leaves)
    leaf = np.empty((n + 1, rows))
    tri = []
    for p in range(0, m, rows):
        w = min(rows, m - p)
        leaf[:n, :w], leaf[n, :w] = a.T[:, p:p + w], y[p:p + w]
        tri.append(np.linalg.qr(leaf[:, :w].T, mode="r"))
    r = np.linalg.qr(np.vstack(tri), mode="r") if len(tri) > 1 else tri[0]
    u, s, vt = np.linalg.svd(r[:n, :n])
    return s, vt, u.T @ r[:n, n], float(abs(r[n, n]))


def _report(s: np.ndarray, vt: np.ndarray) -> ConditioningReport:
    sigma_max = float(s[0])
    sigma_min = float(s[-1]) if s.size == vt.shape[0] else 0.0
    return ConditioningReport(
        sigma_max=sigma_max,
        sigma_min=sigma_min,
        cond=sigma_max / sigma_min if sigma_min > 0 else float("inf"),
        near_null_vector=vt[-1].copy(),
    )


def conditioning_report(a) -> ConditioningReport:
    """Extremal singular values of the kernel and the right singular
    vector of the smallest one."""
    mat = a.a if isinstance(a, ForwardOperator) else np.asarray(a, dtype=float)
    return _report(*_factor(mat)[1:])


def _prepare(fwd: ForwardOperator, y, lambdas):
    """Checked lam values and _project's factors for y, remembered on the
    operator with a copy of y, so a solve and an L-curve share them."""
    lambdas = [float(lam) for lam in lambdas]
    if not all(0.0 <= lam < np.inf for lam in lambdas):
        raise ValueError(f"regularization strength must be finite and >= 0: {lambdas}")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != fwd.a.shape[0]:
        raise ValueError(
            f"observation vector has {y.size} entries, kernel has "
            f"{fwd.a.shape[0]} pixels"
        )
    n_bad = np.count_nonzero(~np.isfinite(y))
    if n_bad:
        raise ValueError(f"observation vector has {n_bad} non-finite entries")
    if not (fwd._last and np.array_equal(fwd._last[0], y)):
        fwd._last[:] = [y.copy(), _project(fwd.a, y)]
    return lambdas, fwd._last[1]


def _filtered(factors, lam: float):
    """Tikhonov solution from (s, vt, c, outside), c = U^T y, and its
    residual norm free of the cancellation in ||A m - y||: the filtered
    ||diag(lam / (s^2 + lam)) c|| combined with the norm outside of y
    beyond the range of U.  At lam = 0 components with s <=
    _RANK_DEFICIENT_RATIO s_max are dropped, so wholly filtered."""
    s, vt, c, outside = factors
    if lam == 0.0:
        keep = s > _RANK_DEFICIENT_RATIO * s[0]
        gain = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        lost = np.where(keep, 0.0, 1.0)
    else:
        gain = s / (s * s + lam)
        lost = lam / (s * s + lam)
    m = vt[: s.size].T @ (gain * c)
    return m, float(np.hypot(np.linalg.norm(lost * c), outside))


def solve_tikhonov(fwd: ForwardOperator, y, lam: float) -> ReconstructionResult:
    """Minimize ||A m - y||^2 + lam ||m||^2 over per-site moments m.

    m = V diag(s / (s^2 + lam)) U^T y from the SVD of A, taken from A^T A
    (cond <= 30) or QR first for a tall kernel and shared with lcurve on
    the same y.  With lam = 0 this is the minimum-norm least-squares
    solution; a rank-deficient kernel draws a warning, since the minimizer
    is then not unique.
    """
    (lam,), factors = _prepare(fwd, y, [lam])
    report = _report(*factors[:2])
    if lam == 0.0 and report.rank_deficient:
        warnings.warn(
            "lam = 0 with a rank-deficient kernel "
            f"(cond = {report.cond:.3e}); solution is not unique",
            stacklevel=2,
        )
    m, residual = _filtered(factors, lam)
    return ReconstructionResult(
        m_z=m, residual_norm=residual, lam=lam, iterations=0, report=report
    )


def lcurve(fwd: ForwardOperator, y, lambdas) -> list:
    """Tabulate (lam, residual norm, solution norm) over a lam grid.

    One factorization, shared with solve_tikhonov on the same y, serves
    every lam, and each row equals what solve_tikhonov returns.  A plain
    sampling helper for manual regularization choice; no corner
    detection or automatic selection.
    """
    lambdas, factors = _prepare(fwd, y, lambdas)
    rows = []
    for lam in lambdas:
        m, residual = _filtered(factors, lam)
        rows.append((lam, residual, float(np.linalg.norm(m))))
    return rows
