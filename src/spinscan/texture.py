"""Sample spin textures: lattice construction, spin patterns, file round-trip.

A texture is a set of lattice sites in the z = 0 plane, each carrying a
classical spin expectation vector (unit direction times magnitude) and a
g-factor.  Textures are inputs to the scan engine; nothing here relaxes
or evolves them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SampleSite",
    "Lattice",
    "SpinTexture",
    "TextureParseError",
    "build_lattice",
    "apply_pattern",
    "save_texture",
    "load_texture",
]

# Sites closer than this (angstrom) are treated as duplicates.
_MIN_SITE_SEPARATION = 0.1

# Largest lattice (sites) build_lattice builds, checked before any array
# is allocated.  The duplicate-site check's work grows as the square of
# the sites: 5e9 pair distances at the budget, a 316 x 316 square lattice.
_MAX_SITES = 100_000

_PATTERNS = ("FM", "AFM-Neel", "stripe")

# Bytes of one float64 plane per block of a pairwise sum, (sites, sites)
# here and (tips, sites) in the scan: about 1 MiB keeps a block in cache.
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
    engine can broadcast over sites; the `sites` property materializes
    per-site records when object access is more convenient.
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
        if spin_mag < 0:
            raise ValueError(f"spin magnitude must be >= 0, got {spin_mag}")
        _check_distinct(positions)
        if spin_mag > 0:
            norms = np.linalg.norm(spin_dirs, axis=1)
            bad = np.where(np.abs(norms - 1.0) > 1e-9)[0]
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
    def sites(self) -> list[SampleSite]:
        return [
            SampleSite(
                position=self.positions[i],
                spin_dir=self.spin_dirs[i],
                spin_mag=self.spin_mag,
                g=self.g,
            )
            for i in range(self.n_sites)
        ]

    @property
    def spin_vectors(self) -> np.ndarray:
        """(n, 3) classical spin vectors spin_mag * spin_dir."""
        return self.spin_mag * self.spin_dirs


def _check_distinct(positions: np.ndarray) -> None:
    """Reject site lists with any pair closer than the duplicate threshold.

    Rows i are compared with sites j > i in blocks of about _BLOCK_BYTES
    per distance plane, so memory stays linear in the sites.  The pair
    reported is the first closest one in row-major order.
    """
    n = positions.shape[0]
    rows = max(1, _BLOCK_BYTES // (8 * n))
    best, pair = np.inf, (0, 0)
    for start in range(0, n - 1, rows):
        block, rest = positions[start:start + rows], positions[start:]
        dx, dy, dz = (block[:, k, None] - rest[None, :, k] for k in range(3))
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
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
    from .scan import _MAX_LATERAL  # scan imports this module
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
    if abs(norm - 1.0) > 1e-6:
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


def save_texture(tex: SpinTexture, path, header_comments=None) -> None:
    """Write a texture in the spintex v1 plain-text format.

    header_comments, when given, is a list of '#'-prefixed lines placed
    at the top of the file (the CLI echoes its effective config there).
    """
    meta = tex.lattice_meta
    lines = list(header_comments) if header_comments else []
    lines += [
        "spintex 1",
        f"lattice {meta.get('type', 'custom')}",
        f"a_angstrom {meta.get('a', 0.0):.12g}",
        f"nx {int(meta.get('nx', 0))}",
        f"ny {int(meta.get('ny', 0))}",
        f"spin_magnitude {tex.spin_mag:.12g}",
        f"g_factor {tex.g:.12g}",
        "# x_angstrom y_angstrom z_angstrom sx sy sz",
    ]
    for pos, sdir in zip(tex.positions, tex.spin_dirs):
        lines.append(
            " ".join(f"{v:.12g}" for v in (*pos, *sdir))
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class TextureParseError(ValueError):
    """Malformed spintex file; message carries the offending line number."""


def _parse_error(path, lineno: int, message: str) -> TextureParseError:
    return TextureParseError(f"{path}:{lineno}: {message}")


def load_texture(path) -> SpinTexture:
    """Read a spintex v1 file; inverse of save_texture.

    Spin directions off unit length by more than 1e-3 are rejected;
    smaller deviations are renormalized with a warning.
    """
    from .scan import _MAX_HEIGHT, _MAX_LATERAL  # scan imports this module

    header_keys = {
        "lattice": str,
        "a_angstrom": float,
        "nx": int,
        "ny": int,
        "spin_magnitude": float,
        "g_factor": float,
    }
    header: dict = {}
    positions: list[list[float]] = []
    spin_dirs: list[np.ndarray] = []
    saw_magic = False

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if not saw_magic:
                if tokens != ["spintex", "1"]:
                    raise _parse_error(
                        path, lineno, f"expected 'spintex 1' header, got {line!r}"
                    )
                saw_magic = True
                continue
            if tokens[0] in header_keys:
                if len(tokens) != 2:
                    raise _parse_error(
                        path, lineno, f"header {tokens[0]!r} takes exactly one value"
                    )
                try:
                    value = header_keys[tokens[0]](tokens[1])
                except ValueError:
                    raise _parse_error(
                        path, lineno, f"cannot parse {tokens[1]!r} for {tokens[0]!r}"
                    ) from None
                if isinstance(value, float) and not np.isfinite(value):
                    raise _parse_error(
                        path, lineno, f"non-finite value {tokens[1]!r} for {tokens[0]!r}"
                    )
                header[tokens[0]] = value
                continue
            if len(tokens) != 6:
                raise _parse_error(
                    path,
                    lineno,
                    f"site line needs 6 fields (x y z sx sy sz), got {len(tokens)}",
                )
            try:
                values = [float(t) for t in tokens]
            except ValueError:
                raise _parse_error(path, lineno, f"non-numeric site line {line!r}") from None
            if not np.all(np.isfinite(values)):
                raise _parse_error(path, lineno, f"non-finite site line {line!r}")
            x, y, z = map(abs, values[:3])
            if max(x, y) > _MAX_LATERAL or z > _MAX_HEIGHT:
                bounds = f"|x|, |y| <= {_MAX_LATERAL:g} A or |z| <= {_MAX_HEIGHT:g} A"
                raise _parse_error(path, lineno, f"site beyond {bounds}: {line!r}")
            sdir = np.array(values[3:])
            norm = np.linalg.norm(sdir)
            if abs(norm - 1.0) > 1e-3:
                raise _parse_error(
                    path,
                    lineno,
                    f"spin direction has |dir| = {norm:.6g}, outside 1 +/- 0.001",
                )
            if abs(norm - 1.0) > 1e-9:
                warnings.warn(
                    f"{path}:{lineno}: renormalizing spin direction (|dir| = {norm:.6g})",
                    stacklevel=2,
                )
                sdir = sdir / norm
            positions.append(values[:3])
            spin_dirs.append(sdir)

    if not saw_magic:
        raise _parse_error(path, 1, "missing 'spintex 1' header")
    missing = set(header_keys) - set(header)
    if missing:
        raise _parse_error(path, 1, f"missing header lines: {sorted(missing)}")
    if not positions:
        raise _parse_error(path, 1, "file contains no site lines")

    meta = {
        "type": header["lattice"],
        "a": header["a_angstrom"],
        "nx": header["nx"],
        "ny": header["ny"],
    }
    try:
        return SpinTexture(
            positions=np.array(positions),
            spin_dirs=np.array(spin_dirs),
            spin_mag=header["spin_magnitude"],
            g=header["g_factor"],
            lattice_meta=meta,
        )
    except ValueError as exc:
        raise TextureParseError(f"{path}: {exc}") from exc
