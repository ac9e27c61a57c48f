"""Scan engine: tip-summed effective fields, raster maps, sweeps, pair mode.

The probe couples to the sample through two channels evaluated at the tip
position: the summed dipolar stray field of all sample spins (tesla) and
the summed exchange field (an energy vector in ueV contracting J(r_i)
with each classical spin vector).  Scans read each pixel's resonances
from its 3x3 probe Hamiltonian in closed form (spincore._field_resonances;
numpy's eigh, the path of probe_resonances, is its oracle).
On the pixel lattice (_lattice_offsets) constant-height scans convolve
kernel images by FFT and build_forward gathers a window of one image per
site; the dense blocked sum, used otherwise, is both paths' oracle.  One
pair walk of the corner site writes J and the images' unit-spin fields.
Iso-frequency scans find heights by Illinois secants (regula falsi) in
brackets that a coarse pass predicts; pair mode treats one sample site
quantum-mechanically as an exactness oracle for the mean-field sum.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .constants import CONSTANTS
from .spincore import (
    _PREFACTORS,
    ProbeSpec,
    ResonancePair,
    _SPIN1,
    _check_exchange_range,
    _exchange_formula,
    _field_resonances,
    eigensolve,
    exchange_pair_hamiltonian,
    spin_operators,
    zeeman_hamiltonian,
    zfs_hamiltonian,
)
from .texture import _BLOCK_BYTES, _MAX_HEIGHT, _MAX_LATERAL, SampleSite, SpinTexture

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

# Tip positions closer than this (angstrom) to a site are invalid input.
_MIN_TIP_SITE_DISTANCE = 0.1

# Minimum scan height (angstrom); below this the point-spin formulas and
# the asymptotic exchange constant are both out of their validity range.
_MIN_HEIGHT = 1.0

# Largest raster (pixels) a scan accepts; grid sizes are checked against
# it before any array is allocated.  A 1000 x 1000 map fits.
_MAX_PIXELS = 1_000_000

# Largest distance sweep (points), checked before allocating; its CSV
# stays near 70 MB, about 70 bytes a row.
_MAX_SWEEP_POINTS = 1_000_000

# Largest working set (bytes) of one interaction kernel, checked before
# allocating: _lattice_fields' images and spectra, or build_forward's kernel.
_MAX_KERNEL_BYTES = 1 << 26

# Largest worker count of scan_constant_height, checked before any thread
# starts: each worker is one OS thread over at most 4 row chunks.
_MAX_WORKERS = 64

# Largest |b_ext| (tesla) a scan accepts: g mu_B B stays finite, about
# 1e305 ueV at most, for every g within spincore._MAX_G.
_MAX_B_EXT = 1e300

_EPS = np.finfo(float).eps

# The odd factors 3^j 5^k of the FFT path's padded lengths 2^i 3^j 5^k; one
# of 2n or more never beats the power of two next above n.
_FFT_ODD = [3**j * 5**k for j in range(40) for k in range(30)]

_ISO_FREQ_TOL_GHZ = 1e-3   # 1 MHz stop of the iso-frequency root finder
_ISO_MAX_ITER = 100
_ISO_STRIDE = 4  # coarse pass of iso scans: every 4th pixel of each axis
_ISO_OVERSHOOT = 0.02  # fine iso steps overshoot their predicted root: best measured of 0-10%


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

    def __post_init__(self):
        Grid.from_ranges(self.x_range, self.y_range, self.step)
        if not math.hypot(*self.b_ext) <= _MAX_B_EXT:
            raise ValueError(f"|b_ext| must be at most {_MAX_B_EXT:g} T, "
                             f"got b_ext={self.b_ext}")
        _check_height(self.height, "scan height")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.exchange_prefactor not in _PREFACTORS:
            raise ValueError(
                f"exchange_prefactor must be one of {_PREFACTORS}, "
                f"got {self.exchange_prefactor!r}"
            )


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


def _points(lo, hi, step):
    """Number of points lo, lo + step, ... up to hi (inclusive when
    commensurate), for scalars or arrays of ends.

    The count allows for the rounding of hi - lo, 1e-9 of a step plus the
    float resolution of the ends (at most half a step), so a range
    rebuilt from its own ends and step counts the same points.
    """
    with np.errstate(over="ignore"):  # past half a step the tolerance is clamped
        tol = np.minimum(0.5, 1e-9 + _EPS * (np.abs(lo) + np.abs(hi)) / step)
    return np.floor((hi - lo) / step + tol) + 1


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
        grid (_points counts them)."""
        if not 0.0 < step < np.inf:
            raise ValueError(f"grid step must be positive and finite, got {step}")
        for name, value in zip(("x_min", "x_max", "y_min", "y_max"), (*x_range, *y_range)):
            _check_lateral(value, name)
        budget = f"the {_MAX_PIXELS} pixel budget; use a larger step or a smaller range"
        # Each extent is checked before it is divided by the step (overflow).
        for axis, (lo, hi) in zip("xy", (x_range, y_range)):
            if hi - lo > step * _MAX_PIXELS:
                raise ValueError(f"scan {axis} range of {hi - lo:g} A at step {step:g} A "
                                 f"exceeds {budget}")
        nx, ny = (_points(lo, hi, step) for lo, hi in (x_range, y_range))
        if nx < 1 or ny < 1:
            raise ValueError("grid ranges must satisfy min <= max")
        if nx * ny > _MAX_PIXELS:
            raise ValueError(f"scan grid of {nx:.0f} x {ny:.0f} pixels exceeds {budget}")
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
    """Raster grid of probe resonances; f_minus/f_plus are (ny, nx) GHz
    arrays."""

    height: float
    mode: str
    f_minus: np.ndarray
    f_plus: np.ndarray

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
    labeled_energies: dict


def _walk_pairs(tips: np.ndarray, tex: SpinTexture, exchange_prefactor: str, mode: str,
                visit, scratch: int):
    """Walk the (tip, site) pairs in row blocks of tips.

    tips: (p, 3) angstrom.  Calls visit(rows, d, d2, j, pref, tmp) per
    block: rows is the block's slice of tips, d the (3, rows, sites)
    tip-site displacement, the rest C-contiguous (rows, sites) planes of
    its squared length d2, J(r) in ueV and the dipolar prefactor
    pref = -g C / r^3 (tesla per unit spin), each None unless mode
    ("dipolar", "exchange" or "both") reads it, and tmp, a list of
    `scratch` free planes for the visitor.  The planes, one (count, rows,
    sites) array, are allocated once per call and written in place, so
    they are valid only during a visit.  A block's working set, its five
    planes (d's three, d2 and r), j and pref as the mode reads them and
    the visitor's, fits _BLOCK_BYTES.
    After the last block it rejects tips within the minimum distance of
    any site, naming the closest pair, and returns the closest tip-site
    distance for the caller's validity-range check, made once per public
    call.
    """
    n = tex.n_sites
    reads_j, reads_pref = mode != "dipolar", mode != "exchange"
    count = 5 + reads_j + reads_pref + scratch
    rows = max(1, _BLOCK_BYTES // (8 * count * n))
    planes = np.empty((count, min(rows, len(tips)), n))
    sites = tex.positions.T[:, None, :].copy()
    stray_pref = -tex.g * CONSTANTS.stray_prefactor_per_mu_b
    # Closest (distance, tip, site) so far; ties keep the first pair in
    # row-major order.
    nearest = (np.inf, 0, 0)

    for start in range(0, tips.shape[0], rows):
        t = tips[start : start + rows]
        block = planes[:, : len(t)]
        d, (d2, dist, *tmp) = block[:3], block[3:]
        pref = tmp.pop() if reads_pref else None
        j = tmp.pop() if reads_j else None
        np.subtract(t.T[:, :, None], sites, out=d)
        # d2 = (d_x d_x + d_y d_y) + d_z d_z, with dist as the scratch plane.
        np.multiply(d[0], d[0], out=d2)
        d2 += np.multiply(d[1], d[1], out=dist)
        d2 += np.multiply(d[2], d[2], out=dist)
        np.sqrt(d2, out=dist)
        k = int(np.argmin(dist))
        if dist.flat[k] < nearest[0]:
            nearest = (float(dist.flat[k]), start + k // n, k % n)
        if nearest[0] < _MIN_TIP_SITE_DISTANCE:
            # The walk fails; later blocks only look for a closer pair.
            continue
        if reads_pref:
            np.divide(stray_pref, np.multiply(d2, dist, out=pref), out=pref)
        if reads_j:
            _exchange_formula(dist, exchange_prefactor, out=j)  # overwrites dist
        visit(slice(start, start + rows), d, d2, j, pref, tmp)

    r_min, p, i = nearest
    if r_min < _MIN_TIP_SITE_DISTANCE:
        x, y, z = tips[p]
        raise ValueError(
            f"tip at ({x:.4g}, {y:.4g}, {z:.4g}) A is {r_min:.4g} A from "
            f"sample site {i} (minimum {_MIN_TIP_SITE_DISTANCE} A)"
        )
    return r_min


def _batch_effective_fields(
    tips: np.ndarray, tex: SpinTexture, exchange_prefactor: str, mode: str = "both"
):
    """Stray and exchange field sums for a batch of tip positions.

    tips: (p, 3) angstrom.  Returns (b_stray (p, 3) tesla, or None in
    exchange mode, b_ex (p, 3) ueV, or None in dipolar mode, r_min the
    closest tip-site distance for the caller's validity-range check).
    Each site sum adds a row's products in an order set by the number of
    sites alone, never by BLAS, so a tip's fields do not depend on which
    block, or which batch, it falls in, nor on the mode.
    """
    spins = tex.spin_vectors.T.copy()
    b_stray = None if mode == "exchange" else np.empty((tips.shape[0], 3))
    b_ex = None if mode == "dipolar" else np.empty((tips.shape[0], 3))

    def add_block(rows, d, d2, j, pref, tmp):
        if j is not None:
            np.einsum("ij,aj->ia", j, spins, out=b_ex[rows])
        if pref is not None:
            # B = sum_i q d_i - pref s_i with q = 3 pref (s . d) / d^2, d the
            # tip-site displacement.  np.sum adds q d: einsum would split a
            # block of one row into pieces over more than 8,192 sites.
            t, q = tmp
            np.multiply(d[0], spins[0], out=q)
            q += np.multiply(d[1], spins[1], out=t)
            q += np.multiply(d[2], spins[2], out=t)
            q *= np.multiply(pref, 3.0, out=t)
            q /= d2
            b = np.einsum("ij,aj->ia", pref, spins, out=b_stray[rows])
            for a, plane in enumerate(d):
                b[:, a] = np.multiply(q, plane, out=t).sum(axis=1) - b[:, a]

    r_min = _walk_pairs(tips, tex, exchange_prefactor, mode, add_block,
                        0 if mode == "exchange" else 2)
    return b_stray, b_ex, r_min


def _unit_spin_stray(d, d2, pref, b, q, out):
    """Write into out[a], for each a >= b it holds, B_a (tesla) of a unit
    spin along axis b, from the planes of _walk_pairs: q d_a - pref if
    a = b, else q d_a, with q = 3 pref d_b / d2 in the scratch plane q."""
    np.multiply(pref, 3.0, out=q)
    q *= d[b]
    q /= d2
    for a, plane in out.items():
        np.multiply(q, d[a], out=plane)
        if a == b:
            plane -= pref


def _lattice_offsets(grid: Grid, tex: SpinTexture, height: float):
    """(ix, iy, kernel, site): each site's whole-step offsets (float) from
    the corner site, the Grid of pixel-site offsets and a unit +z spin at
    the corner site to walk over the offsets.  None, for the dense sum,
    unless all sites lie at one z at least 2 A (J's validity bound, so no
    distance check can fire) below the tips and their x and y differ by
    whole steps up to the rounding of the coordinates."""
    pos = tex.positions
    if np.any(pos[:, 2] != pos[0, 2]) or not height - pos[0, 2] >= 2.0:
        return None
    index, corner = [], []
    for c in (pos[:, 0], pos[:, 1]):
        k = np.round((c - c[0]) / grid.step)
        if np.any(np.abs(c - c[0] - k * grid.step) > 4.0 * _EPS * np.max(np.abs(c))):
            return None
        index.append(k - k.min())  # cast to int by the caller, once its budget holds
        corner.append(c[np.argmin(k)])
    mx, my = (int(i.max()) + 1 for i in index)
    # The (ny+my-1) x (nx+mx-1) grid of pixel-site offsets.
    kernel = Grid(grid.x0 - grid.step * (mx - 1), grid.y0 - grid.step * (my - 1),
                  grid.step, grid.nx + mx - 1, grid.ny + my - 1)
    site = SpinTexture([[*corner, pos[0, 2]]], [[0.0, 0.0, 1.0]], 1.0, tex.g)
    return *index, kernel, site


def _lattice_fields(grid: Grid, tex: SpinTexture, cfg: ScanConfig):
    """(nx ny, 3) energy vectors g mu_B B_stray + b_ex (ueV) of the sample,
    each channel only if cfg.mode reads it and without b_ext, by exact FFT
    convolution; None, for the dense sum, as _lattice_offsets or over budget."""
    found = _lattice_offsets(grid, tex, cfg.height)
    if found is None:
        return None
    ix, iy, kernel, site = found
    # Pad each axis to the next 2^i 3^j 5^k: numpy has no next_fast_len, and
    # its FFTs run several times faster there than at nearby primes.
    shape = tuple(min(q << (-(-n // q) - 1).bit_length() for q in _FFT_ODD if q < 2 * n)
                  for n in (kernel.ny, kernel.nx))
    if 18 * 8 * shape[0] * shape[1] > _MAX_KERNEL_BYTES:  # 7 images, 3 tip planes, 8 spectra
        return None
    my, mx = kernel.ny - grid.ny + 1, kernel.nx - grid.nx + 1

    # Images of one site at the corner: "j", J (ueV), unless the mode is
    # dipolar, and unless it is exchange (a, b), B_a of a unit spin along b
    # (_unit_spin_stray), a >= b.  They are allocated up front, so the heap
    # is reused; one walk over the site fills them through (rows, 1) views,
    # J once, in blocks of _BLOCK_BYTES // 64 tips or more (at most eight planes).
    tips = kernel.tips(cfg.height)
    keys = (["j"] * (cfg.mode != "dipolar")
            + [(a, b) for b in range(3) for a in range(b, 3)] * (cfg.mode != "exchange"))
    images = {key: np.empty(len(tips)) for key in keys}

    def fill(rows, d, d2, j, pref, tmp):
        if j is not None:
            images["j"][rows, None] = j
        for b in range(3) if pref is not None else ():
            _unit_spin_stray(d, d2, pref, b, tmp[0],
                             {a: images[a, b][rows, None] for a in range(b, 3)})

    _walk_pairs(tips, site, cfg.exchange_prefactor, cfg.mode, fill, int(cfg.mode != "exchange"))
    del tips  # before the spectra are allocated

    # Convolve, transforming one kernel image at a time and freeing it;
    # pixel (iy, ix) reads the circular convolution at (iy+my-1, ix+mx-1),
    # which the padding keeps free of wrap-around.  e is linear in both
    # channels, so the stray-tensor spectra, scaled by g mu_B, and the J
    # spectrum add into one accumulator per axis of e.
    spins = np.zeros((3, my, mx))
    spins[:, iy.astype(int), ix.astype(int)] = tex.spin_vectors.T
    spin_hat = np.fft.rfft2(spins, shape)
    acc = np.zeros_like(spin_hat)

    def spectrum(key):
        return np.fft.rfft2(images.pop(key).reshape(kernel.ny, kernel.nx), shape)

    for a, b in [key for key in images if key != "j"]:
        t_hat = spectrum((a, b))
        acc[a] += t_hat * spin_hat[b]
        if a != b:
            acc[b] += t_hat * spin_hat[a]
    acc *= cfg.probe.g * CONSTANTS.mu_b
    if "j" in images:
        acc += spectrum("j") * spin_hat
    # irfft2's two passes, the x pass only over the pixel rows.
    rows = np.fft.ifft(acc, axis=1)[:, my - 1 : my - 1 + grid.ny]
    e_vec = np.fft.irfft(rows, shape[1])[..., mx - 1 : mx - 1 + grid.nx]
    return e_vec.reshape(3, -1).T


def _energy_vectors(b_stray, b_ex, cfg: ScanConfig) -> np.ndarray:
    """(p, 3) energy vectors e = g mu_B (b_ext + b_stray) + b_ex (ueV) of
    the probe Hamiltonians D (Sz^2 - 2/3) + e . S, each field sum None
    when cfg.mode does not read it: the Zeeman and exchange terms are both
    vector contractions with S.  The FFT path's sample energy vectors come
    in as b_ex, so b_ext is added here in every mode on both paths."""
    b_eff = np.asarray(cfg.b_ext, dtype=float) + (0.0 if b_stray is None else b_stray)
    e_vec = cfg.probe.g * CONSTANTS.mu_b * b_eff
    return e_vec if b_ex is None else e_vec + b_ex


def _batch_hamiltonians(
    b_stray: np.ndarray, b_ex: np.ndarray, cfg: ScanConfig
) -> np.ndarray:
    """(p, 3, 3) probe Hamiltonians from per-tip field sums."""
    e_vec = _energy_vectors(b_stray, b_ex, cfg)
    return (
        zfs_hamiltonian(cfg.probe)[None, :, :]
        + e_vec[:, 0, None, None] * _SPIN1.sx[None, :, :]
        + e_vec[:, 1, None, None] * _SPIN1.sy[None, :, :]
        + e_vec[:, 2, None, None] * _SPIN1.sz[None, :, :]
    )


def _tip(tip_pos) -> np.ndarray:
    """One tip position as a (1, 3) batch, refused unless finite and within
    the tip bounds of texture sites (raster tips are checked where their
    Grid is built)."""
    tip = np.asarray(tip_pos, dtype=float)[None, :]
    if not np.all(np.abs(tip) <= (_MAX_LATERAL, _MAX_LATERAL, _MAX_HEIGHT)):
        raise ValueError(f"tip position must be finite, |x|, |y| <= {_MAX_LATERAL:g} A and "
                         f"|z| <= {_MAX_HEIGHT:g} A, got {tuple(tip[0].tolist())} A")
    return tip


def effective_fields_at(tip_pos, tex: SpinTexture, exchange_prefactor: str = "rydberg"):
    """Summed stray field (tesla) and exchange field (ueV) at one tip position.

    B_stray = -sum_i (mu0 g mu_B / 4 pi d_i^3) (3 dhat_i (s_i . dhat_i) - s_i)
    and b_ex = sum_i J(d_i) s_i, with d_i = tip - r_i and s_i the classical
    vectors spin_mag * spin_dir of the texture.
    """
    b_stray, b_ex, r_min = _batch_effective_fields(_tip(tip_pos), tex, exchange_prefactor)
    _check_exchange_range(r_min)
    return b_stray[0], b_ex[0]


def probe_hamiltonian_at(tip_pos, tex: SpinTexture, cfg: ScanConfig) -> np.ndarray:
    """3x3 probe Hamiltonian (ueV) at one tip position under cfg.mode."""
    b_stray, b_ex, r_min = _batch_effective_fields(_tip(tip_pos), tex,
                                                   cfg.exchange_prefactor, cfg.mode)
    _check_exchange_range(r_min)
    return _batch_hamiltonians(b_stray, b_ex, cfg)[0]


def _branches(cfg: ScanConfig, tex: SpinTexture, tips: np.ndarray):
    """(f_minus, f_plus) GHz at each tip position, from the dense field sums
    under cfg.mode, and the closest tip-site distance."""
    b_stray, b_ex, r_min = _batch_effective_fields(
        tips, tex, cfg.exchange_prefactor, cfg.mode
    )
    e_vec = _energy_vectors(b_stray, b_ex, cfg)
    return (*_field_resonances(e_vec, cfg.probe.d_zfs), r_min)


def scan_constant_height(
    cfg: ScanConfig, tex: SpinTexture, workers: int = 1
) -> ResonanceMap:
    """Raster the tip at fixed height and record both resonance branches.

    Energy vectors come from one exact FFT convolution when the sites sit
    on the pixel lattice (_lattice_fields), else from dense sums per row chunk;
    chunks fill disjoint slices on a thread pool, so the output is
    bit-identical for any worker count.  J below its validity range
    warns once, at the closest tip-site pair.
    """
    if not 1 <= workers <= _MAX_WORKERS:
        raise ValueError(f"workers must be within [1, {_MAX_WORKERS}], got {workers}")
    grid = Grid.from_ranges(cfg.x_range, cfg.y_range, cfg.step)
    n = grid.nx * grid.ny
    f_minus, f_plus = np.empty(n), np.empty(n)
    e_sample = _lattice_fields(grid, tex, cfg)
    tips = grid.tips(cfg.height) if e_sample is None else None

    def run_chunk(block):
        """Fill the block's branches; return its closest tip-site distance."""
        if e_sample is None:
            f_minus[block], f_plus[block], r_min = _branches(cfg, tex, tips[block])
            return r_min
        f_minus[block], f_plus[block] = _field_resonances(
            _energy_vectors(None, e_sample[block], cfg), cfg.probe.d_zfs
        )
        return np.inf  # the FFT path applies only 2 A or more above the sites

    workers = int(workers)
    row_chunks = np.array_split(np.arange(grid.ny), min(workers * 4, grid.ny))
    blocks = [slice(rows[0] * grid.nx, (rows[-1] + 1) * grid.nx) for rows in row_chunks]
    if workers == 1:
        r_min = min(map(run_chunk, blocks))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            r_min = min(pool.map(run_chunk, blocks))
    _check_exchange_range(r_min)

    if not (np.all(np.isfinite(f_minus)) and np.all(np.isfinite(f_plus))):
        raise ArithmeticError("scan produced non-finite resonance values")
    shape = (grid.ny, grid.nx)
    return ResonanceMap(
        **asdict(grid),
        height=cfg.height,
        mode=cfg.mode,
        f_minus=f_minus.reshape(shape),
        f_plus=f_plus.reshape(shape),
    )


def scan_iso_frequency(
    cfg: ScanConfig,
    tex: SpinTexture,
    f_source: float,
    z_min: float,
    z_max: float,
) -> IsoScanMap:
    """Per-pixel height where the upper branch crosses f_source (GHz).

    Every _ISO_STRIDE-th pixel of each axis, and the last row and column,
    search [z_min, z_max].  The rest start from the bilinear interpolant of
    their heights and slopes dg/dz, step just past the root that predicts,
    on a miss once more by the secant, and search [z_min, z_max] after a
    second miss or from a NaN start.  Each search is one vectorized
    Illinois regula falsi (Dowell & Jarratt 1971) that stops at the first
    point with |delta f| < 1 MHz, or at the bracket midpoint after
    _ISO_MAX_ITER rounds.  Pixels with no bracketed crossing hold NaN.
    Where f_plus crosses f_source more than once, a fine pixel may find one
    that [z_min, z_max] does not bracket.  J below its validity range warns
    once, at the closest tip-site pair of any round.
    """
    if not 0.0 < f_source < np.inf:
        raise ValueError(f"f_source must be positive and finite, got {f_source}")
    _check_height(z_min, "z_min")
    _check_height(z_max, "z_max")
    if z_max <= z_min:
        raise ValueError("z_max must exceed z_min")
    grid = Grid.from_ranges(cfg.x_range, cfg.y_range, cfg.step)
    xy = grid.tips(0.0)[:, :2]
    heights, slopes = np.full((2, len(xy)), np.nan)  # slopes: dg/dz of the last two points
    r_min = []  # closest tip-site distance of each round

    def offset(rows, z):
        _, f_plus, r = _branches(cfg, tex, np.column_stack([xy[rows], z]))
        r_min.append(r)
        return f_plus - f_source

    # Secant variable with the sign of f_plus - f_source: the log of
    # (f_plus - D/h) / (f_source - D/h), about linear in z since the
    # exchange splitting decays about exponentially; the offset itself
    # when f_source is at or below D/h.  Non-finite below D/h.
    f_zfs = cfg.probe.d_zfs / CONSTANTS.h_planck

    def secant_var(df):
        if f_source <= f_zfs:
            return df
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log1p(df / (f_source - f_zfs))

    def solve(pixels, ends, f_ends=None):
        """Fill heights of pixels from brackets between ends (either order),
        evaluated unless their offsets f_ends are given."""
        ends = np.reshape(ends, (2, -1)) + np.zeros(len(pixels))  # scalar ends broadcast
        f_ends = [offset(pixels, z) for z in ends] if f_ends is None else f_ends
        f_lo, f_hi = f_ends
        g = secant_var(np.stack(f_ends))
        kept = np.full(len(pixels), -1)  # end kept last round: 0 lo, 1 hi
        active = np.flatnonzero(np.sign(f_lo) * np.sign(f_hi) <= 0.0)  # a product could overflow
        for _ in range(_ISO_MAX_ITER):
            if not active.size:
                break
            lo, hi = ends[:, active]
            g_lo, g_hi = g[:, active]
            with np.errstate(all="ignore"):
                z = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            # Safeguard: a secant point that is non-finite or not strictly
            # inside the bracket becomes the bracket midpoint.
            z = np.where((np.fmin(lo, hi) < z) & (z < np.fmax(lo, hi)), z, 0.5 * (lo + hi))
            f_z = offset(pixels[active], z)
            last = (1 - kept[active]) % 2, active  # end moved last round (lo at first)
            with np.errstate(all="ignore"):
                slopes[pixels[active]] = (secant_var(f_z) - g[last]) / (z - ends[last])
            done = np.abs(f_z) < _ISO_FREQ_TOL_GHZ
            heights[pixels[active[done]]] = z[done]
            active, z, f_z = active[~done], z[~done], f_z[~done]
            # z replaces the end whose offset has its sign (0 lo, 1 hi), so
            # the bracket keeps its sign change.  Illinois step: an end kept
            # twice in a row has its g halved, which pulls the next point
            # towards it.
            moved = (np.sign(f_lo[active]) * np.sign(f_z) <= 0.0).astype(int)
            stale = kept[active] == 1 - moved
            g[1 - moved[stale], active[stale]] *= 0.5
            ends[moved, active], g[moved, active] = z, secant_var(f_z)
            f_lo[active] = np.where(moved == 0, f_z, f_lo[active])
            kept[active] = 1 - moved
        # Pixels still active hit the iteration cap; report the midpoint.
        heights[pixels[active]] = 0.5 * (ends[0, active] + ends[1, active])

    # Coarse pixel indices along y and x.
    ticks = [np.unique(np.r_[0:m:_ISO_STRIDE, m - 1]) for m in (grid.ny, grid.nx)]
    coarse = np.zeros((grid.ny, grid.nx), dtype=bool)
    coarse[np.ix_(*ticks)] = True
    solve(np.flatnonzero(coarse), (z_min, z_max))
    fine = np.flatnonzero(~coarse)

    # Bilinear interpolant of the coarse heights and slopes, one axis at a
    # time: pixel i lies at fraction t of its coarse cell (c[k], c[k1]), and
    # a corner of weight 0, NaN or not, drops out.
    start = np.stack([heights, slopes]).reshape(2, grid.ny, grid.nx)[np.ix_([0, 1], *ticks)]
    for axis, (m, c) in enumerate(zip((grid.ny, grid.nx), ticks), start=1):
        i = np.arange(m)
        k = np.minimum(i // _ISO_STRIDE, max(len(c) - 2, 0))
        k1 = np.minimum(k + 1, len(c) - 1)
        t = np.expand_dims((i - c[k]) / np.maximum(c[k1] - c[k], 1), 2 - axis)
        start = (np.where(t < 1, (1 - t) * np.take(start, k, axis), 0.0)
                 + np.where(t > 0, t * np.take(start, k1, axis), 0.0))
    # Fine pixels evaluate b: the start, then steps from a, the point nearer
    # the root so far.  A sign change between a and b goes to solve.
    zb, slope = start.reshape(2, -1)[:, fine]
    pix, zb, slope = (v[np.isfinite(zb)] for v in (fine, zb, slope))
    za = fa = ga = np.full(len(pix), np.nan)  # no point a yet
    for _ in range(3):
        fb = offset(pix, zb)
        gb = secant_var(fb)
        done = np.abs(fb) < _ISO_FREQ_TOL_GHZ
        heights[pix[done]] = zb[done]
        hit = ~done & (np.sign(fa) * np.sign(fb) <= 0.0)
        solve(pix[hit], np.stack([za, zb])[:, hit], np.stack([fa, fb])[:, hit])
        with np.errstate(all="ignore"):
            slope = np.where(np.isnan(za), slope, (gb - ga) / (zb - za))
            near = ~(np.abs(ga) < np.abs(gb))  # b, when there is no a
            za, fa, ga = (np.where(near, b, a) for a, b in ((za, zb), (fa, fb), (ga, gb)))
            zb = np.clip(za - (1.0 + _ISO_OVERSHOOT) * ga / slope, z_min, z_max)
        step = ~done & ~hit & np.isfinite(zb) & (zb != za)
        pix, za, fa, ga, zb, slope = (v[step] for v in (pix, za, fa, ga, zb, slope))
    # A NaN start, a third miss or a step that cannot move leaves no height.
    solve(fine[np.isnan(heights[fine])], (z_min, z_max))
    _check_exchange_range(min(r_min))

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
    ops_s = spin_operators(s_sample)
    dist = float(np.linalg.norm(_tip(tip_pos)[0] - site.position))
    if dist < _MIN_TIP_SITE_DISTANCE:
        raise ValueError(f"tip-site distance {dist:.4g} A below validity minimum")
    _check_exchange_range(dist)
    j_uev = float(_exchange_formula(np.asarray(dist), cfg.exchange_prefactor))

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
    field of a spin_mag moment, and f_res = J/h.  J and the stray field
    are the scan's field sums over one site at the origin, with a unit
    spin along z, at tips (0, 0, r).  Also locates the exchange-dipolar
    crossover radius by bisection on J(r) - E_dd(r).
    """
    if not _MIN_TIP_SITE_DISTANCE <= r_min < r_max < np.inf:
        raise ValueError(
            f"need {_MIN_TIP_SITE_DISTANCE} <= r_min < r_max < inf, got {r_min}, {r_max}"
        )
    if r_max > _MAX_HEIGHT:  # past it J's x^2.5 and the 1/r^3 columns overflow
        raise ValueError(f"r_max must be at most {_MAX_HEIGHT:g} A, got {r_max}")
    SpinTexture([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], spin_mag, g_sample)  # checks spin_mag and g
    ProbeSpec(g=g_probe)  # refuses a g past spincore._MAX_G
    if not 2 <= n_points <= _MAX_SWEEP_POINTS:
        raise ValueError(
            f"need 2 to {_MAX_SWEEP_POINTS} sweep points, got {n_points}"
        )
    if log_spacing:
        r = np.geomspace(r_min, r_max, n_points)
    else:
        r = np.linspace(r_min, r_max, n_points)

    _check_exchange_range(r_min)
    unit = SpinTexture([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], 1.0, g_sample)
    tips = np.column_stack([np.zeros((n_points, 2)), r])
    b_unit, b_ex, _ = _batch_effective_fields(tips, unit, exchange_prefactor)
    j_ex = b_ex[:, 2].copy()  # a view would keep all three columns alive
    # The electron moment is anti-parallel to its spin: the field of a +z
    # spin points along -z above it, and the column holds its magnitude.
    b_stray = -spin_mag * b_unit[:, 2]
    dd_scale = g_probe * g_sample * CONSTANTS.dipole_energy_prefactor
    e_dd = dd_scale / r**3
    f_res = j_ex / CONSTANTS.h_planck

    def gap(radius: float) -> float:
        j = _exchange_formula(np.asarray(radius), exchange_prefactor)
        return float(j - dd_scale / radius**3)

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
