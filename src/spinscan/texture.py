"""Sample spin textures: lattice construction and spin patterns.

A texture is a set of lattice sites in the z = 0 plane, each carrying a
classical spin expectation vector (unit direction times magnitude) and a
g-factor.  Textures are inputs to the scan engine; nothing here relaxes
or evolves them.  The spintex file format lives in fileio, with every
other format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spincore import _MAX_G

__all__ = [
    "SampleSite",
    "Lattice",
    "SpinTexture",
    "build_lattice",
    "apply_pattern",
]

# Sites closer than this (angstrom) are treated as duplicates.
_MIN_SITE_SEPARATION = 0.1

# Largest lattice (sites) build_lattice builds, checked before any array
# is allocated.  The duplicate-site check's work grows as the square of
# the sites: 5e9 pair distances at the budget, a 316 x 316 square lattice.
_MAX_SITES = 100_000

# Largest spin magnitude, far past any ion's (7/2 for Gd3+).  With |g| <=
# spincore._MAX_G, tips 0.1 A or more from the sites and the site budget,
# |B_stray| <= 1e5 x 2 x 1e3 x 0.93 T A^3 x 1e3 / (0.1 A)^3 = 1.9e14 T and
# |b_ex| <= 1e5 x 6.4e6 ueV (J's peak) x 1e3 = 6.4e14 ueV: the sums stay finite.
_MAX_SPIN_MAG = 1e3

_LATTICES = ("square", "triangular", "honeycomb")
_PATTERNS = ("FM", "AFM-Neel", "stripe")

# Maximum tip height (angstrom), 1 um: far past where either interaction
# is measurable, and far below the heights where J's x^2.5 factor (about
# 1e122 A) or the squared tip-site distance (about 1e154 A) overflows.
_MAX_HEIGHT = 1e4

# Largest |x| or |y| of a tip or site (angstrom), 100 um: far past any
# texture rastered at angstrom steps, and far below the coordinates
# (about 1e154 A) where the squared tip-site distance overflows.
_MAX_LATERAL = 1e6

# Bytes of the whole working set of one block of a pairwise loop, every
# float64 plane it holds at once: (sites, sites) here, (tips, sites) in
# the scan's pair walk with its visitor's planes.  1 MiB stays within a
# core's 2 MiB L2: on a 2-core VM, one thread, the isoscan walk took
# 42-49 ns a pair when it sized one of about ten planes, 23-25 ns sized
# to all of them.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SampleSite:
    """One sample spin: position (angstrom), unit direction, magnitude, g."""

    position: np.ndarray
    spin_dir: np.ndarray
    spin_mag: float
    g: float


@dataclass(frozen=True)
class Lattice:
    """Site positions plus the integer indexing patterns operate on.

    positions: (n, 3) angstrom; cell_index: (n, 2) integer Bravais cell
    (i, j); sublattice: (n,) basis index within the cell.  meta records
    the construction, including the nearest-neighbor convention.
    """

    positions: np.ndarray
    cell_index: np.ndarray
    sublattice: np.ndarray
    meta: dict

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]


class SpinTexture:
    """Ordered collection of sample sites with uniform spin_mag and g.

    Stored as arrays (positions (n,3), spin_dirs (n,3)) so the scan
    engine can broadcast over sites.
    """

    def __init__(
        self,
        positions,
        spin_dirs,
        spin_mag: float,
        g: float,
        lattice_meta: dict | None = None,
    ):
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        spin_dirs = np.atleast_2d(np.asarray(spin_dirs, dtype=float))
        if positions.shape[1] != 3 or spin_dirs.shape[1] != 3:
            raise ValueError("positions and spin_dirs must be (n, 3) arrays")
        if positions.shape[0] != spin_dirs.shape[0]:
            raise ValueError("positions and spin_dirs must have equal length")
        if positions.shape[0] == 0:
            raise ValueError("texture must contain at least one site")
        if not 0.0 <= spin_mag <= _MAX_SPIN_MAG:
            raise ValueError(f"spin magnitude must be finite and >= 0, at most "
                             f"{_MAX_SPIN_MAG:g}, got {spin_mag}")
        if not abs(g) <= _MAX_G:
            raise ValueError(f"sample g must be finite and within +/-{_MAX_G:g}, got {g}")
        inside = np.abs(positions) <= (_MAX_LATERAL, _MAX_LATERAL, _MAX_HEIGHT)
        if not inside.all():
            k = np.argmin(inside.all(axis=1))
            raise ValueError(f"site {k} at {tuple(positions[k].tolist())} A is non-finite or "
                             f"past the {_MAX_LATERAL:g} A lateral or {_MAX_HEIGHT:g} A "
                             "height bound")
        _check_distinct(positions)
        if spin_mag > 0:
            norms = np.linalg.norm(spin_dirs, axis=1)
            bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))
            if bad.size:
                raise ValueError(
                    f"spin direction at site {bad[0]} is not a unit vector "
                    f"(|dir| = {norms[bad[0]]:.6g})"
                )
        self.positions = positions
        self.spin_dirs = spin_dirs
        self.spin_mag = float(spin_mag)
        self.g = float(g)
        self.lattice_meta = dict(lattice_meta) if lattice_meta else {"type": "custom"}

    @property
    def n_sites(self) -> int:
        return self.positions.shape[0]

    @property
    def spin_vectors(self) -> np.ndarray:
        """(n, 3) classical spin vectors spin_mag * spin_dir."""
        return self.spin_mag * self.spin_dirs


def _check_distinct(positions: np.ndarray) -> None:
    """Reject site lists with any pair closer than the duplicate threshold.

    Rows i are compared with sites j > i in blocks whose working set, a
    distance plane, a coordinate-difference plane and a bool mask (17
    bytes a pair), fits _BLOCK_BYTES, so memory stays linear in the
    sites.  The pair reported is the first closest one in row-major order.
    """
    n = positions.shape[0]
    rows = max(1, _BLOCK_BYTES // (17 * n))
    planes = np.empty((2, min(rows, n) * n))
    best, pair = np.inf, (0, 0)
    for start in range(0, n - 1, rows):
        block, rest = positions[start:start + rows], positions[start:]
        # dist = sqrt((dx dx + dy dy) + dz dz), in place.
        dist, d = (p[: len(block) * len(rest)].reshape(len(block), -1) for p in planes)
        np.subtract(block[:, 0, None], rest[None, :, 0], out=dist)
        dist *= dist
        for k in (1, 2):
            np.subtract(block[:, k, None], rest[None, :, k], out=d)
            dist += np.multiply(d, d, out=d)
        np.sqrt(dist, out=dist)
        dist[np.tri(*dist.shape, dtype=bool)] = np.inf  # j <= i
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[i, j] < best:
            best, pair = dist[i, j], (start + i, start + j)
    if best <= _MIN_SITE_SEPARATION:
        raise ValueError(
            f"sites {pair[0]} and {pair[1]} are {best:.4g} A apart "
            f"(minimum separation {_MIN_SITE_SEPARATION} A)"
        )


def build_lattice(lattice_type: str, a: float, nx: int, ny: int) -> Lattice:
    """Construct a 2D lattice in the z = 0 plane.

    square: sites at (i a, j a, 0).  triangular: Bravais vectors
    a1 = a (1, 0), a2 = a (1/2, sqrt(3)/2), nearest neighbor at a.
    honeycomb: same Bravais vectors with a two-site basis (0, 0) and
    (a/2, a/(2 sqrt(3))), nearest-neighbor distance a/sqrt(3).
    """
    if not 0 < a < np.inf:
        raise ValueError(f"lattice constant must be positive and finite, got {a}")
    if nx < 1 or ny < 1:
        raise ValueError(f"lattice extents must be >= 1, got nx={nx}, ny={ny}")
    n_sites = nx * ny * (2 if lattice_type == "honeycomb" else 1)
    if n_sites > _MAX_SITES:
        raise ValueError(
            f"a {nx} x {ny} {lattice_type} lattice has {n_sites} sites, over the "
            f"{_MAX_SITES} site budget"
        )

    a1, basis = np.array([a, 0.0, 0.0]), np.zeros((1, 3))
    if lattice_type == "square":
        a2 = np.array([0.0, a, 0.0])
    elif lattice_type in ("triangular", "honeycomb"):
        a2 = np.array([0.5 * a, 0.5 * np.sqrt(3.0) * a, 0.0])
    else:
        raise ValueError(
            f"unknown lattice type {lattice_type!r}; "
            "expected square, triangular, or honeycomb"
        )
    if lattice_type == "honeycomb":
        basis = np.array([[0.0, 0.0, 0.0], [0.5 * a, 0.5 * a / np.sqrt(3.0), 0.0]])
    # Coordinates grow with i, j and the basis, so the last cell's sites
    # bound the lattice.  Checked before allocating: farther sites would
    # overflow the squared distances of the duplicate-site check.
    with np.errstate(over="ignore"):
        extent = float(np.max((nx - 1) * a1 + (ny - 1) * a2 + basis))
    if extent > _MAX_LATERAL:
        raise ValueError(
            f"a {nx} x {ny} {lattice_type} lattice with a = {a:g} A reaches "
            f"{extent:g} A, past the {_MAX_LATERAL:g} A lateral bound"
        )

    jj, ii = (g.ravel() for g in np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij"))
    cells = ii[:, None] * a1 + jj[:, None] * a2
    meta = {"type": lattice_type, "a": float(a), "nx": int(nx), "ny": int(ny),
            "nearest_neighbor": float(a / np.sqrt(3.0) if lattice_type == "honeycomb" else a)}
    n_basis = basis.shape[0]
    positions = (cells[:, None, :] + basis[None, :, :]).reshape(-1, 3)
    cell_index = np.repeat(np.column_stack([ii, jj]), n_basis, axis=0)
    sublattice = np.tile(np.arange(n_basis), cells.shape[0])
    return Lattice(
        positions=positions,
        cell_index=cell_index.astype(int),
        sublattice=sublattice.astype(int),
        meta=meta,
    )


def apply_pattern(
    lattice: Lattice,
    pattern: str,
    direction: Sequence[float] = (0.0, 0.0, 1.0),
    spin_mag: float = 0.5,
    g: float = 2.0,
) -> SpinTexture:
    """Assign spin vectors to lattice sites.

    pattern is "FM" (all along direction), "AFM-Neel" (sign (-1)^(i+j)
    on square cell indices; sublattice sign on honeycomb) or "stripe"
    (sign (-1)^i), each sign applied to the common direction.
    """
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"pattern direction must be a unit vector, |d| = {norm:.6g}")

    ii = lattice.cell_index[:, 0]
    jj = lattice.cell_index[:, 1]
    sub = lattice.sublattice
    lattice_type = lattice.meta.get("type", "custom")

    if pattern == "FM":
        signs = np.ones(lattice.n_sites)
    elif pattern == "AFM-Neel":
        if lattice_type == "honeycomb":
            signs = 1.0 - 2.0 * sub
        elif lattice_type == "square":
            signs = (-1.0) ** (ii + jj)
        else:
            raise ValueError(
                f"AFM-Neel pattern is undefined on a {lattice_type} lattice "
                "(no bipartite integer indexing)"
            )
    elif pattern == "stripe":
        signs = (-1.0) ** ii
    else:
        raise ValueError(f"unknown pattern {pattern!r}; expected one of {_PATTERNS}")

    spin_dirs = signs[:, None] * direction[None, :]
    return SpinTexture(
        positions=lattice.positions,
        spin_dirs=spin_dirs,
        spin_mag=spin_mag,
        g=g,
        lattice_meta=lattice.meta,
    )
