"""Scan engine: tip-summed effective fields, raster maps, sweeps, pair mode.

The probe couples to the sample through two channels evaluated at the tip
position: the summed dipolar stray field of all sample spins (tesla) and
the summed exchange field (an energy vector in ueV contracting J(r_i)
with each classical spin vector).  Constant-height scans diagonalize the
resulting 3x3 probe Hamiltonian per pixel; iso-frequency scans invert
the upper resonance branch for height by bisection; pair mode treats one
sample site quantum-mechanically as an exactness oracle for the
mean-field sum.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .constants import CONSTANTS
from .spincore import (
    ProbeSpec,
    ResonancePair,
    _batch_resonances,
    _check_exchange_range,
    _exchange_formula,
    eigensolve,
    exchange_constant,
    exchange_pair_hamiltonian,
    spin_operators,
    zeeman_hamiltonian,
    zfs_hamiltonian,
)
from .texture import SampleSite, SpinTexture

__all__ = [
    "Grid",
    "ScanConfig",
    "ResonanceMap",
    "IsoScanMap",
    "SweepCurve",
    "PairModeResult",
    "effective_fields_at",
    "probe_hamiltonian_at",
    "scan_constant_height",
    "scan_iso_frequency",
    "pair_mode_resonance",
    "distance_sweep",
]

_MODES = ("dipolar", "exchange", "both")
_CONVENTIONS = ("transition", "splitting")
_PREFACTORS = ("rydberg", "hartree")

# Tip positions closer than this (angstrom) to a site are invalid input.
_MIN_TIP_SITE_DISTANCE = 0.1

# Minimum scan height (angstrom); below this the point-spin formulas and
# the asymptotic exchange constant are both out of their validity range.
_MIN_HEIGHT = 1.0

# Maximum tip height (angstrom), 1 um: far past where either interaction
# is measurable, and far below the heights where J's x^2.5 factor (about
# 1e122 A) or the squared tip-site distance (about 1e154 A) overflows.
_MAX_HEIGHT = 1e4

# Largest |x| or |y| of a tip (angstrom), 100 um: far past any texture
# rastered at angstrom steps, and far below the coordinates (about
# 1e154 A) where the squared tip-site distance overflows.
_MAX_LATERAL = 1e6

# Largest raster (pixels) a scan accepts; grid sizes are checked against
# it before any array is allocated.  A 1000 x 1000 map fits.
_MAX_PIXELS = 1_000_000

# Bytes of one (tips, sites) float64 plane in the field sums: about
# 1 MiB keeps a block's dozen planes in cache.
_BLOCK_BYTES = 1 << 20

_EPS = np.finfo(float).eps

_ISO_FREQ_TOL_GHZ = 1e-3   # 1 MHz bisection stop
_ISO_MAX_ITER = 100

_SPIN1 = spin_operators(1.0)


@dataclass(frozen=True)
class ScanConfig:
    """Raster-scan parameters; immutable, shared read-only by workers."""

    height: float = 4.0
    x_range: tuple = (0.0, 12.0)
    y_range: tuple = (0.0, 12.0)
    step: float = 0.25
    mode: str = "exchange"
    b_ext: tuple = (0.0, 0.0, 0.0)
    probe: ProbeSpec = field(default_factory=ProbeSpec)
    exchange_prefactor: str = "rydberg"
    resonance_convention: str = "transition"

    def __post_init__(self):
        values = (self.height, self.step, *self.x_range, *self.y_range, *self.b_ext)
        if not np.all(np.isfinite(values)):
            raise ValueError(
                "scan height, step, ranges and field must be finite, got "
                f"height={self.height}, step={self.step}, x_range={self.x_range}, "
                f"y_range={self.y_range}, b_ext={self.b_ext}"
            )
        if self.step <= 0:
            raise ValueError(f"scan step must be positive, got {self.step}")
        _check_height(self.height, "scan height")
        if self.x_range[1] < self.x_range[0] or self.y_range[1] < self.y_range[0]:
            raise ValueError("scan ranges must satisfy min <= max")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.exchange_prefactor not in _PREFACTORS:
            raise ValueError(
                f"exchange_prefactor must be one of {_PREFACTORS}, "
                f"got {self.exchange_prefactor!r}"
            )
        if self.resonance_convention not in _CONVENTIONS:
            raise ValueError(
                f"resonance_convention must be one of {_CONVENTIONS}, "
                f"got {self.resonance_convention!r}"
            )

    @property
    def include_dipolar(self) -> bool:
        return self.mode in ("dipolar", "both")

    @property
    def include_exchange(self) -> bool:
        return self.mode in ("exchange", "both")


def _check_height(height: float, name: str) -> None:
    """Reject a tip height outside [_MIN_HEIGHT, _MAX_HEIGHT], or NaN."""
    if not _MIN_HEIGHT <= height <= _MAX_HEIGHT:
        raise ValueError(
            f"{name} must be finite and within [{_MIN_HEIGHT:g}, "
            f"{_MAX_HEIGHT:g}] A, got {height}"
        )


def _check_lateral(value: float, name: str) -> None:
    """Reject a tip x or y outside [-_MAX_LATERAL, _MAX_LATERAL], or NaN."""
    if not abs(value) <= _MAX_LATERAL:
        raise ValueError(
            f"{name} must be finite and within +/-{_MAX_LATERAL:g} A, got {value}"
        )


@dataclass(frozen=True)
class Grid:
    """Raster of nx x ny pixels at (x0 + step ix, y0 + step iy), row-major
    with x varying fastest.  from_ranges is the checked constructor."""

    x0: float
    y0: float
    step: float
    nx: int
    ny: int

    @classmethod
    def from_ranges(cls, x_range, y_range, step: float) -> "Grid":
        """Pixels lo, lo+step, ... up to hi (inclusive when commensurate) over
        x_range and y_range, after checking the values and the pixel budget.

        A grid rebuilt from its own x_range, y_range and step is the same
        grid: the count allows for the rounding of hi - lo, 1e-9 of a step
        plus the float resolution of the coordinates (at most half a step).
        """
        if not 0.0 < step < np.inf:
            raise ValueError(f"grid step must be positive and finite, got {step}")
        for name, value in zip(("x_min", "x_max", "y_min", "y_max"), (*x_range, *y_range)):
            _check_lateral(value, name)
        nx, ny = (
            np.floor((hi - lo) / step + min(0.5, 1e-9 + _EPS * (abs(lo) + abs(hi)) / step))
            + 1
            for lo, hi in (x_range, y_range)
        )
        if nx < 1 or ny < 1:
            raise ValueError("grid ranges must satisfy min <= max")
        if nx * ny > _MAX_PIXELS:
            raise ValueError(
                f"scan grid of {nx:.0f} x {ny:.0f} pixels exceeds the {_MAX_PIXELS} "
                "pixel budget; use a larger step or a smaller range"
            )
        return cls(float(x_range[0]), float(y_range[0]), float(step), int(nx), int(ny))

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.step * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.step * np.arange(self.ny)

    @property
    def x_range(self) -> tuple:
        return (self.x0, self.x0 + self.step * (self.nx - 1))

    @property
    def y_range(self) -> tuple:
        return (self.y0, self.y0 + self.step * (self.ny - 1))

    def tips(self, z) -> np.ndarray:
        """(nx ny, 3) tip positions in pixel order; z is one height or one
        per pixel."""
        grid_x, grid_y = np.meshgrid(self.xs, self.ys)
        return np.column_stack(
            [grid_x.ravel(), grid_y.ravel(), np.broadcast_to(z, (grid_x.size,))]
        )


@dataclass(frozen=True)
class ResonanceMap(Grid):
    """Raster grid of probe resonances.

    f_minus/f_plus are (ny, nx) GHz arrays; b_stray (tesla) and b_ex
    (ueV) are optional (ny, nx, 3) diagnostic channels, absent on maps
    loaded from CSV.
    """

    height: float
    mode: str
    f_minus: np.ndarray
    f_plus: np.ndarray
    b_stray: Optional[np.ndarray] = None
    b_ex: Optional[np.ndarray] = None

    def signal(self, convention: str = "transition") -> np.ndarray:
        """Scalar per-pixel signal: upper branch, or branch splitting."""
        if convention == "transition":
            return self.f_plus
        if convention == "splitting":
            return self.f_plus - self.f_minus
        raise ValueError(
            f"convention must be one of {_CONVENTIONS}, got {convention!r}"
        )


@dataclass(frozen=True)
class IsoScanMap(Grid):
    """Per-pixel heights (angstrom) where f_plus equals the source frequency.

    Pixels with no bracketed root in [z_min, z_max] hold NaN.
    """

    f_source: float
    z_min: float
    z_max: float
    heights: np.ndarray


@dataclass(frozen=True)
class SweepCurve:
    """Interaction scales versus probe-to-sample distance (single site).

    r: angstrom, strictly increasing.  j_ex: exchange constant, ueV.
    e_dd: dipolar pair energy scale mu0 (g mu_B)^2 / 4 pi r^3, ueV.
    b_stray: on-axis stray field magnitude, tesla.  f_res: j_ex / h, GHz.
    crossover_r: radius where j_ex = e_dd, None if outside the range.
    """

    r: np.ndarray
    j_ex: np.ndarray
    e_dd: np.ndarray
    b_stray: np.ndarray
    f_res: np.ndarray
    crossover_r: Optional[float]


@dataclass(frozen=True)
class PairModeResult:
    """Exact probe+site resonances grouped by sample-spin sector.

    sectors maps the sample magnetic quantum number m_s to the probe
    ResonancePair extracted from eigenstates whose dominant product-basis
    component carries that m_s.  labeled_energies maps (m_probe, m_site)
    to the eigenvalue (ueV) of the eigenstate assigned that label, which
    keeps the sign of each transition's shift accessible.
    """

    j_uev: float
    sectors: dict
    eigenvalues: np.ndarray
    labeled_energies: dict


def _walk_pairs(tips: np.ndarray, tex: SpinTexture, exchange_prefactor: str, visit):
    """Walk the (tip, site) pairs in row blocks of tips.

    tips: (p, 3) angstrom.  Calls visit(rows, dx, dy, dz, d2, j, pref)
    per block of _BLOCK_BYTES // (8 n_sites) tips: rows is the block's
    slice of tips, the rest are C-contiguous (rows, sites) planes of the
    tip-site displacement, its squared length d2, J(r) in ueV and the
    dipolar prefactor pref = -g C / r^3 (tesla per unit spin).  visit is
    a callback, not a generator's consumer, so a block's planes are freed
    as the next block's replace them rather than held alongside them
    (about 5% slower field sums).  After the last
    block it rejects tips within the minimum distance of any site,
    naming the closest pair, and warns once if J was evaluated below its
    validity range.
    """
    n = tex.n_sites
    rows = max(1, _BLOCK_BYTES // (8 * n))
    site_x, site_y, site_z = tex.positions.T.copy()
    stray_pref = -tex.g * CONSTANTS.stray_prefactor_per_mu_b
    # Closest (distance, tip, site) so far; ties keep the first pair in
    # row-major order.
    nearest = (np.inf, 0, 0)

    for start in range(0, tips.shape[0], rows):
        t = tips[start : start + rows]
        dx = t[:, 0, None] - site_x
        dy = t[:, 1, None] - site_y
        dz = t[:, 2, None] - site_z
        d2 = dx * dx + dy * dy + dz * dz
        dist = np.sqrt(d2)
        k = int(np.argmin(dist))
        if dist.flat[k] < nearest[0]:
            nearest = (float(dist.flat[k]), start + k // n, k % n)
        if nearest[0] < _MIN_TIP_SITE_DISTANCE:
            # The walk fails; later blocks only look for a closer pair.
            continue
        j = _exchange_formula(dist, exchange_prefactor)
        pref = stray_pref / (d2 * dist)
        visit(slice(start, start + rows), dx, dy, dz, d2, j, pref)

    r_min, p, i = nearest
    if r_min < _MIN_TIP_SITE_DISTANCE:
        x, y, z = tips[p]
        raise ValueError(
            f"tip at ({x:.4g}, {y:.4g}, {z:.4g}) A is {r_min:.4g} A from "
            f"sample site {i} (minimum {_MIN_TIP_SITE_DISTANCE} A)"
        )
    # Point the warning at whoever called the walker's caller.
    _check_exchange_range(r_min, stacklevel=3)


def _batch_effective_fields(
    tips: np.ndarray, tex: SpinTexture, exchange_prefactor: str
):
    """Stray and exchange field sums for a batch of tip positions.

    tips: (p, 3) angstrom.  Returns (b_stray (p, 3) tesla,
    b_ex (p, 3) ueV).  Each site sum is a row-wise np.sum over a
    C-contiguous (rows, sites) plane, so a tip's fields do not depend on
    which block, or which batch, it falls in.
    """
    spin_x, spin_y, spin_z = tex.spin_vectors.T.copy()
    b_stray = np.empty((tips.shape[0], 3))
    b_ex = np.empty((tips.shape[0], 3))

    def add_block(rows, dx, dy, dz, d2, j, pref):
        b_ex[rows, 0] = np.sum(j * spin_x, axis=1)
        b_ex[rows, 1] = np.sum(j * spin_y, axis=1)
        b_ex[rows, 2] = np.sum(j * spin_z, axis=1)

        # B = sum_i q d_i - pref s_i with q = 3 pref (s . d) / d^2, d the
        # tip-site displacement.
        q = (3.0 * pref) * (dx * spin_x + dy * spin_y + dz * spin_z) / d2
        b_stray[rows, 0] = np.sum(q * dx, axis=1) - np.sum(pref * spin_x, axis=1)
        b_stray[rows, 1] = np.sum(q * dy, axis=1) - np.sum(pref * spin_y, axis=1)
        b_stray[rows, 2] = np.sum(q * dz, axis=1) - np.sum(pref * spin_z, axis=1)

    _walk_pairs(tips, tex, exchange_prefactor, add_block)
    return b_stray, b_ex


def _batch_hamiltonians(
    b_stray: np.ndarray, b_ex: np.ndarray, cfg: ScanConfig
) -> np.ndarray:
    """(p, 3, 3) probe Hamiltonians from per-tip field sums."""
    b_eff = np.asarray(cfg.b_ext, dtype=float)[None, :] + (
        b_stray if cfg.include_dipolar else 0.0
    )
    # The Zeeman and exchange terms are both vector contractions with S,
    # so collapse them into one energy vector (ueV) before building H.
    e_vec = cfg.probe.g * CONSTANTS.mu_b * b_eff
    if cfg.include_exchange:
        e_vec = e_vec + b_ex
    h_zfs = zfs_hamiltonian(cfg.probe)
    h = (
        h_zfs[None, :, :]
        + e_vec[:, 0, None, None] * _SPIN1.sx[None, :, :]
        + e_vec[:, 1, None, None] * _SPIN1.sy[None, :, :]
        + e_vec[:, 2, None, None] * _SPIN1.sz[None, :, :]
    )
    return h


def effective_fields_at(tip_pos, tex: SpinTexture, exchange_prefactor: str = "rydberg"):
    """Summed stray field (tesla) and exchange field (ueV) at one tip position.

    B_stray = sum_i stray_field(tip - r_i, spin_i), b_ex = sum_i
    J(|tip - r_i|) spin_i, with spin_i the classical vectors
    spin_mag * spin_dir of the texture.
    """
    tips = np.asarray(tip_pos, dtype=float)[None, :]
    b_stray, b_ex = _batch_effective_fields(tips, tex, exchange_prefactor)
    return b_stray[0], b_ex[0]


def probe_hamiltonian_at(tip_pos, tex: SpinTexture, cfg: ScanConfig) -> np.ndarray:
    """3x3 probe Hamiltonian (ueV) at one tip position under cfg.mode."""
    tips = np.asarray(tip_pos, dtype=float)[None, :]
    b_stray, b_ex = _batch_effective_fields(tips, tex, cfg.exchange_prefactor)
    return _batch_hamiltonians(b_stray, b_ex, cfg)[0]


def _scan_tips(cfg: ScanConfig, tex: SpinTexture, tips: np.ndarray):
    """(f_minus, f_plus, b_stray, b_ex) at each tip position."""
    b_stray, b_ex = _batch_effective_fields(tips, tex, cfg.exchange_prefactor)
    f_minus, f_plus = _batch_resonances(_batch_hamiltonians(b_stray, b_ex, cfg))
    return f_minus, f_plus, b_stray, b_ex


def scan_constant_height(
    cfg: ScanConfig, tex: SpinTexture, workers: int = 1
) -> ResonanceMap:
    """Raster the tip at fixed height and record both resonance branches.

    Rows are distributed over a thread pool and reassembled by row
    index, so the output is bit-identical for any worker count.
    """
    grid = Grid.from_ranges(cfg.x_range, cfg.y_range, cfg.step)
    tips = grid.tips(cfg.height)
    f_minus = np.empty(tips.shape[0])
    f_plus = np.empty(tips.shape[0])
    b_stray = np.empty(tips.shape)
    b_ex = np.empty(tips.shape)

    workers = max(1, int(workers))
    row_chunks = np.array_split(np.arange(grid.ny), min(workers * 4, grid.ny))
    blocks = [slice(rows[0] * grid.nx, (rows[-1] + 1) * grid.nx) for rows in row_chunks]

    def run_chunk(block):
        return block, _scan_tips(cfg, tex, tips[block])

    if workers == 1:
        results = [run_chunk(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, blocks))
    for block, (fm, fp, bs, bx) in results:
        f_minus[block] = fm
        f_plus[block] = fp
        b_stray[block] = bs
        b_ex[block] = bx

    if not (np.all(np.isfinite(f_minus)) and np.all(np.isfinite(f_plus))):
        raise ArithmeticError("scan produced non-finite resonance values")
    shape = (grid.ny, grid.nx)
    return ResonanceMap(
        **asdict(grid),
        height=cfg.height,
        mode=cfg.mode,
        f_minus=f_minus.reshape(shape),
        f_plus=f_plus.reshape(shape),
        b_stray=b_stray.reshape(shape + (3,)),
        b_ex=b_ex.reshape(shape + (3,)),
    )


def scan_iso_frequency(
    cfg: ScanConfig,
    tex: SpinTexture,
    f_source: float,
    z_min: float,
    z_max: float,
) -> IsoScanMap:
    """Per-pixel height where the upper branch crosses f_source (GHz).

    Bisection between z_min and z_max to |delta f| < 1 MHz.  Pixels whose
    endpoint values do not bracket f_source are marked NaN rather than
    extrapolated.
    """
    _check_height(z_min, "z_min")
    _check_height(z_max, "z_max")
    if z_max <= z_min:
        raise ValueError("z_max must exceed z_min")
    grid = Grid.from_ranges(cfg.x_range, cfg.y_range, cfg.step)
    n = grid.nx * grid.ny

    lo = np.full(n, z_min)
    hi = np.full(n, z_max)
    f_lo = _scan_tips(cfg, tex, grid.tips(lo))[1] - f_source
    f_hi = _scan_tips(cfg, tex, grid.tips(hi))[1] - f_source
    bracketed = f_lo * f_hi <= 0.0

    heights = np.full(n, np.nan)
    active = bracketed.copy()
    for _ in range(_ISO_MAX_ITER):
        if not np.any(active):
            break
        mid = 0.5 * (lo + hi)
        idx = np.where(active)[0]
        f_mid = np.empty(n)
        f_mid[idx] = _scan_tips(cfg, tex, grid.tips(mid)[idx])[1] - f_source
        converged = np.zeros(n, dtype=bool)
        converged[idx] = np.abs(f_mid[idx]) < _ISO_FREQ_TOL_GHZ
        newly = active & converged
        heights[newly] = mid[newly]
        active &= ~converged
        # Keep the sign change between lo and hi: the root stays on the
        # side where f changes sign relative to f_lo.
        same_side = np.zeros(n, dtype=bool)
        same_side[idx] = f_lo[idx] * f_mid[idx] > 0.0
        move_lo = active & same_side
        move_hi = active & ~same_side
        lo[move_lo] = mid[move_lo]
        f_lo[move_lo] = f_mid[move_lo]
        hi[move_hi] = mid[move_hi]
    # Any still-active pixels hit the iteration cap; report the midpoint.
    heights[active] = 0.5 * (lo[active] + hi[active])

    return IsoScanMap(
        **asdict(grid),
        f_source=float(f_source),
        z_min=float(z_min),
        z_max=float(z_max),
        heights=heights.reshape(grid.ny, grid.nx),
    )


def pair_mode_resonance(
    tip_pos, site: SampleSite, cfg: ScanConfig
) -> PairModeResult:
    """Exact probe+single-site treatment: the mean-field oracle.

    The site spin is quantized with s equal to its spin magnitude (a
    half-integer).  H = zfs x 1 + J(r) S_probe . S_site plus Zeeman
    terms on both spins when an external field is set.  Eigenstates are
    assigned to product-basis labels (m_probe, m_site) by greedy maximal
    overlap; each m_site sector yields one ResonancePair.
    """
    s_sample = site.spin_mag
    if s_sample <= 0 or abs(2.0 * s_sample - round(2.0 * s_sample)) > 1e-9:
        raise ValueError(
            "pair mode quantizes the site spin: spin magnitude must be a "
            f"positive half-integer, got {s_sample}"
        )
    ops_s = spin_operators(s_sample)
    dist = float(np.linalg.norm(np.asarray(tip_pos, dtype=float) - site.position))
    if dist < _MIN_TIP_SITE_DISTANCE:
        raise ValueError(f"tip-site distance {dist:.4g} A below validity minimum")
    j_uev = float(exchange_constant(dist, prefactor=cfg.exchange_prefactor))

    dim_t, dim_s = 3, ops_s.dim
    eye_t = np.eye(dim_t)
    eye_s = np.eye(dim_s)
    h = np.kron(zfs_hamiltonian(cfg.probe), eye_s).astype(complex)
    h += exchange_pair_hamiltonian(j_uev, _SPIN1, ops_s)
    b_ext = np.asarray(cfg.b_ext, dtype=float)
    if np.any(b_ext != 0.0):
        h += np.kron(zeeman_hamiltonian(cfg.probe.g, b_ext, _SPIN1), eye_s)
        h += np.kron(eye_t, zeeman_hamiltonian(site.g, b_ext, ops_s))

    decomp = eigensolve(h)
    dim = dim_t * dim_s
    overlap = np.abs(decomp.eigenvectors) ** 2   # [basis, eigenstate]

    # Greedy bijection: repeatedly take the largest remaining overlap.
    label_of_state = {}
    taken_basis = set()
    order = np.argsort(overlap, axis=None)[::-1]
    for flat in order:
        basis, state = np.unravel_index(flat, (dim, dim))
        if state in label_of_state or basis in taken_basis:
            continue
        label_of_state[state] = basis
        taken_basis.add(basis)
        if len(label_of_state) == dim:
            break

    m_probe = 1.0 - np.arange(dim_t)
    m_site = s_sample - np.arange(dim_s)
    # energies[(m_t, m_s)] from the assignment
    energy_of = {}
    for state, basis in label_of_state.items():
        t_idx, s_idx = divmod(basis, dim_s)
        energy_of[(m_probe[t_idx], m_site[s_idx])] = decomp.eigenvalues[state]

    sectors = {}
    for ms in m_site:
        e_ref = energy_of[(0.0, ms)]
        freqs = sorted(
            abs(energy_of[(mt, ms)] - e_ref) / CONSTANTS.h_planck
            for mt in (1.0, -1.0)
        )
        sectors[float(ms)] = ResonancePair(
            f_minus=float(freqs[0]), f_plus=float(freqs[1])
        )
    return PairModeResult(
        j_uev=j_uev,
        sectors=sectors,
        eigenvalues=decomp.eigenvalues,
        labeled_energies={k: float(v) for k, v in energy_of.items()},
    )


def distance_sweep(
    r_min: float,
    r_max: float,
    n_points: int,
    log_spacing: bool = False,
    exchange_prefactor: str = "rydberg",
    spin_mag: float = 0.5,
    g_probe: float = 2.0,
    g_sample: float = 2.0,
) -> SweepCurve:
    """Interaction energy scales versus single-site tip distance.

    Tabulates the exchange constant J(r), the dipolar pair scale
    mu0 (g_probe mu_B)(g_sample mu_B) / 4 pi r^3, the on-axis stray
    field of a spin_mag moment, and f_res = J/h.  Also locates the
    exchange-dipolar crossover radius by bisection on J(r) - E_dd(r).
    """
    if not 0.0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got {r_min}, {r_max}")
    if n_points < 2:
        raise ValueError(f"need at least 2 sweep points, got {n_points}")
    if log_spacing:
        r = np.geomspace(r_min, r_max, n_points)
    else:
        r = np.linspace(r_min, r_max, n_points)

    j_ex = exchange_constant(r, prefactor=exchange_prefactor)
    dd_scale = g_probe * g_sample * CONSTANTS.dipole_energy_prefactor
    e_dd = dd_scale / r**3
    # On-axis stray field of a spin aligned with the axis: |3 rhat (S.rhat) - S|
    # = 2 spin_mag, so |B| = (mu0 g mu_B / 4 pi r^3) * 2 spin_mag.
    b_stray = CONSTANTS.stray_prefactor_per_mu_b * g_sample * 2.0 * spin_mag / r**3
    f_res = j_ex / CONSTANTS.h_planck

    def gap(radius: float) -> float:
        return float(
            exchange_constant(radius, prefactor=exchange_prefactor)
            - dd_scale / radius**3
        )

    crossover = None
    signs = np.sign(j_ex - e_dd)
    flips = np.where(signs[:-1] * signs[1:] < 0)[0]
    if flips.size:
        lo, hi = float(r[flips[0]]), float(r[flips[0] + 1])
        g_lo = gap(lo)
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            g_mid = gap(mid)
            if g_lo * g_mid <= 0.0:
                hi = mid
            else:
                lo, g_lo = mid, g_mid
        crossover = 0.5 * (lo + hi)
    elif np.any(signs == 0):
        crossover = float(r[np.argmax(signs == 0)])

    return SweepCurve(
        r=r, j_ex=j_ex, e_dd=e_dd, b_stray=b_stray, f_res=f_res, crossover_r=crossover
    )
