"""File formats: spintex textures, map/sweep/spectrum CSV, PGM images,
key-value reports and config files.

The two readers, load_texture and load_map_csv, check every value where
it enters and refuse a bad one with the file and line number.  Each
reads its header through one key table (_TEXTURE_HEADER, _MAP_HEADER:
key -> cast and check) that its writer emits in order, and refuses a
missing key by name.  All writers are deterministic: floats use 9
significant digits (12 in spintex files), echoed keys are emitted in
sorted order, and no timestamps or environment details enter the output,
so equal inputs produce byte-identical files.  Every output
starts with '#' comment lines echoing the effective configuration.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .scan import _MODES, Grid, IsoScanMap, ResonanceMap, SweepCurve
from .spectrum import FitResult, Spectrum
from .spincore import _MAX_G
from .texture import _LATTICES, _MAX_HEIGHT, _MAX_LATERAL, _MAX_SPIN_MAG, SpinTexture

__all__ = [
    "TextureParseError",
    "save_texture",
    "load_texture",
    "format_value",
    "echo_lines",
    "write_map_csv",
    "load_map_csv",
    "MapParseError",
    "write_error_map_csv",
    "write_iso_csv",
    "write_sweep_csv",
    "write_spectrum_csv",
    "write_pgm",
    "write_keyvalue",
    "write_moments",
    "fit_report_items",
    "load_config",
]

PGM_MAXVAL = 65535

_MAP_COLUMNS = "x_angstrom,y_angstrom,f_minus_ghz,f_plus_ghz"

# Grid header of a map CSV in ResonanceMap's field order: key -> its cast
# and the check its value must pass.  The origin, the height and the step
# between two pixels stay within the bounds of the sites a texture holds.
_MAP_HEADER = {
    "map_x0_angstrom": (float, lambda v: abs(v) <= _MAX_LATERAL),
    "map_y0_angstrom": (float, lambda v: abs(v) <= _MAX_LATERAL),
    "map_step_angstrom": (float, lambda v: 0.0 < v <= 2.0 * _MAX_LATERAL),
    "map_nx": (int, lambda v: v >= 1),
    "map_ny": (int, lambda v: v >= 1),
    "map_height_angstrom": (float, lambda v: abs(v) <= _MAX_HEIGHT),
    "map_mode": (str, lambda v: v in _MODES),
}

# Header of a spintex file in save_texture's order, in the same shape,
# with SpinTexture's bounds on the spin magnitude and g.  A custom texture
# is written with a = 0 and nx = ny = 0.
_TEXTURE_HEADER = {
    "lattice": (str, lambda v: v in (*_LATTICES, "custom")),
    "a_angstrom": (float, lambda v: 0.0 <= v < math.inf),
    "nx": (int, lambda v: v >= 0),
    "ny": (int, lambda v: v >= 0),
    "spin_magnitude": (float, lambda v: 0.0 <= v <= _MAX_SPIN_MAG),
    "g_factor": (float, lambda v: abs(v) <= _MAX_G),
}


def format_value(value) -> str:
    """Stable scalar formatting: floats at 9 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.9g}"
    return str(value)


def echo_lines(command: str, params: dict) -> list[str]:
    """Effective-configuration comment block for output headers."""
    lines = [f"# spinscan {command}"]
    for key in sorted(params):
        lines.append(f"# {key} = {format_value(params[key])}")
    return lines


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path, command: str, params: dict, header: str, body: str) -> None:
    """Config echo of command and params, the column header, the body."""
    _write_lines(path, [*echo_lines(command, params), header, body])


class TextureParseError(ValueError):
    """Malformed spintex file; message carries the offending line number."""


class MapParseError(ValueError):
    """Malformed map CSV; message carries the path and, for a bad row or
    header line, its line number."""


def _parse_error(path, lineno: int, message: str, error=TextureParseError) -> ValueError:
    return error(f"{path}:{lineno}: {message}")


def _parse_row(path, lineno: int, line: str, what: str, fields: str, error,
               sep=None) -> list[float]:
    """The values of one data line split at sep, one per field of fields
    (split the same way), each a finite float; else error at path:lineno."""
    parts = line.split(sep)
    if len(parts) != len(fields.split(sep)):
        raise _parse_error(path, lineno, f"{what} needs {len(fields.split(sep))} fields "
                           f"({fields}), got {len(parts)}", error)
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise _parse_error(path, lineno, f"non-numeric {what} {line!r}", error) from None
    if not all(map(math.isfinite, values)):
        raise _parse_error(path, lineno, f"non-finite value in {what} {line!r}", error)
    return values


def _add_header(path, found: dict, key: str, lineno: int, text: str, error) -> None:
    """Record a header line in found; a key seen before is an error at
    this line that names the first."""
    if key in found:
        raise _parse_error(path, lineno, f"repeated header {key}, first at line "
                           f"{found[key][0]}", error)
    found[key] = (lineno, text)


def _header_values(path, found: dict, table: dict, error) -> list:
    """The value of each key of table, in its order, from found ({key:
    (lineno, text)}), cast and checked by the table; else error naming the
    key, at its line when it has one."""
    values = []
    for key, (cast, valid) in table.items():
        if key not in found:
            raise error(f"{path}: missing header line {key!r}")
        lineno, text = found[key]
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise _parse_error(path, lineno, f"malformed header {key} = {text!r}", error)
        values.append(value)
    return values


def save_texture(tex: SpinTexture, path, header_comments=None) -> None:
    """Write a texture in the spintex v1 plain-text format.

    header_comments, when given, is a list of '#'-prefixed lines placed
    at the top of the file (the CLI echoes its effective config there).
    """
    meta = tex.lattice_meta
    header = (meta.get("type", "custom"), f"{meta.get('a', 0.0):.12g}", int(meta.get("nx", 0)),
              int(meta.get("ny", 0)), f"{tex.spin_mag:.12g}", f"{tex.g:.12g}")
    lines = list(header_comments) if header_comments else []
    lines += ["spintex 1", *(f"{key} {v}" for key, v in zip(_TEXTURE_HEADER, header)),
              "# x_angstrom y_angstrom z_angstrom sx sy sz"]
    for pos, sdir in zip(tex.positions, tex.spin_dirs):
        lines.append(" ".join(f"{v:.12g}" for v in (*pos, *sdir)))
    _write_lines(path, lines)


def load_texture(path) -> SpinTexture:
    """Read a spintex v1 file; inverse of save_texture.

    Header values must pass _TEXTURE_HEADER's checks.  Spin directions
    off unit length by more than 1e-3 are rejected; smaller deviations
    are renormalized with a warning.
    """
    found: dict = {}
    positions: list[list[float]] = []
    spin_dirs: list[np.ndarray] = []
    saw_magic = False

    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *text = line.split(None, 1)
            if not saw_magic:
                if line.split() != ["spintex", "1"]:
                    raise _parse_error(
                        path, lineno, f"expected 'spintex 1' header, got {line!r}"
                    )
                saw_magic = True
                continue
            if key in _TEXTURE_HEADER:
                _add_header(path, found, key, lineno, "".join(text), TextureParseError)
                continue
            values = _parse_row(path, lineno, line, "site line", "x y z sx sy sz",
                                TextureParseError)
            x, y, z = map(abs, values[:3])
            if max(x, y) > _MAX_LATERAL or z > _MAX_HEIGHT:
                bounds = f"|x|, |y| <= {_MAX_LATERAL:g} A and |z| <= {_MAX_HEIGHT:g} A"
                raise _parse_error(path, lineno, f"site outside {bounds}: {line!r}")
            sdir = np.array(values[3:])
            norm = math.hypot(*sdir)  # no overflow of the squares
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
    lattice, a, nx, ny, spin_mag, g = _header_values(path, found, _TEXTURE_HEADER,
                                                     TextureParseError)
    if not positions:
        raise _parse_error(path, 1, "file contains no site lines")
    try:
        return SpinTexture(np.array(positions), np.array(spin_dirs), spin_mag, g,
                           {"type": lattice, "a": a, "nx": nx, "ny": ny})
    except ValueError as exc:
        raise TextureParseError(f"{path}: {exc}") from exc


def _rows(*columns, grid: Grid | None = None) -> str:
    """CSV body of the raveled columns, one line of values a row, each
    line led by its pixel's 'x,y' when grid is given (x varying fastest).
    Each x and y is formatted once into the file's one %-template, and a
    single % call fills it: %.9g gives the bytes of format_value."""
    fmt = ",".join(["%.9g"] * len(columns))
    values = np.column_stack([np.ravel(c) for c in columns])
    if grid is None:
        template = "\n".join([fmt] * len(values))
    else:
        xs, ys = (["%.9g" % v for v in axis.tolist()] for axis in (grid.xs, grid.ys))
        # One row of pixels: the x strings joined by the rest of a line.
        template = "\n".join(f",{y},{fmt}\n".join(xs) + f",{y},{fmt}" for y in ys)
    return template % tuple(values.ravel().tolist())


def write_map_csv(path, rmap: ResonanceMap, params: dict) -> None:
    """Resonance map as CSV, row-major with x varying fastest, after its
    grid header."""
    grid = (rmap.x0, rmap.y0, rmap.step, rmap.nx, rmap.ny, rmap.height, rmap.mode)
    _write_csv(path, "map", {**params, **dict(zip(_MAP_HEADER, grid))},
               _MAP_COLUMNS, _rows(rmap.f_minus, rmap.f_plus, grid=rmap))


def load_map_csv(path) -> ResonanceMap:
    """Read a map CSV back into a ResonanceMap.

    The grid comes from the '# map_* = value' header lines that
    write_map_csv emits; a missing one is refused by name, a malformed
    one by name and line.
    Every row's x, y must be its pixel's on that grid.
    """
    found: dict = {}
    rows: list[list[float]] = []
    linenos: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                key, eq, text = (part.strip() for part in line.lstrip("#").partition("="))
                if eq and key in _MAP_HEADER:
                    _add_header(path, found, key, lineno, text, MapParseError)
            elif line and not line.startswith("x_angstrom"):
                rows.append(_parse_row(path, lineno, line, "map row", _MAP_COLUMNS,
                                       MapParseError, ","))
                linenos.append(lineno)
    if not rows:
        raise MapParseError(f"{path}: no data rows")
    data = np.array(rows)
    grid = _header_values(path, found, _MAP_HEADER, MapParseError)
    x0, y0, step, nx, ny = grid[:5]
    if nx * ny != data.shape[0]:
        raise MapParseError(
            f"{path}: {data.shape[0]} rows do not fill a {nx} x {ny} grid"
        )
    # The writer prints 9 significant digits: allow their rounding of the
    # row and of the header's origin and step.
    origin = np.array([x0, y0])
    want = Grid(x0, y0, step, nx, ny).tips(0.0)[:, :2]
    tol = 1e-8 * (np.abs(want) + np.abs(origin) + np.abs(want - origin))
    bad = np.flatnonzero(np.any(np.abs(data[:, :2] - want) > tol, axis=1))
    if bad.size:
        k = bad[0]
        raise MapParseError(
            f"{path}:{linenos[k]}: row at ({data[k, 0]:.9g}, {data[k, 1]:.9g}) A is "
            f"not pixel ({k % nx}, {k // nx}) of the {nx} x {ny} grid, at "
            f"({want[k, 0]:.9g}, {want[k, 1]:.9g}) A"
        )
    return ResonanceMap(*grid, f_minus=data[:, 2].reshape(ny, nx),
                        f_plus=data[:, 3].reshape(ny, nx))


def write_error_map_csv(path, rmap: ResonanceMap, error: np.ndarray, params: dict) -> None:
    """Per-pixel |fitted - true| (GHz) on the map grid."""
    _write_csv(path, "error-map", params, "x_angstrom,y_angstrom,error_ghz",
               _rows(error, grid=rmap))


def write_iso_csv(path, iso: IsoScanMap, params: dict) -> None:
    """Iso-frequency height map; out-of-range pixels emitted as nan."""
    meta = {
        "iso_f_source_ghz": iso.f_source,
        "iso_z_min_angstrom": iso.z_min,
        "iso_z_max_angstrom": iso.z_max,
    }
    _write_csv(path, "isoscan", {**params, **meta}, "x_angstrom,y_angstrom,z_angstrom",
               _rows(iso.heights, grid=iso))


def write_sweep_csv(path, curve: SweepCurve, params: dict) -> None:
    meta = {}
    if curve.crossover_r is not None:
        meta["crossover_r_angstrom"] = curve.crossover_r
    _write_csv(path, "sweep", {**params, **meta},
               "r_angstrom,J_uev,Edd_uev,Bstray_T,f_ghz",
               _rows(curve.r, curve.j_ex, curve.e_dd, curve.b_stray, curve.f_res))


def write_spectrum_csv(path, spec: Spectrum, params: dict) -> None:
    _write_csv(path, "spectrum", params, "f_ghz,counts",
               _rows(spec.frequencies, spec.counts))


def write_pgm(path, values: np.ndarray, params: dict) -> None:
    """16-bit P2 grayscale, linearly normalized between min and max.

    The array is (ny, nx) with row 0 at the smallest y; PGM rows run
    top-down, so rows are flipped to render north-up.
    """
    values = np.asarray(values, dtype=float)
    lo = float(np.nanmin(values))
    hi = float(np.nanmax(values))
    span = hi - lo
    if span > 0:
        gray = np.round((values - lo) / span * PGM_MAXVAL).astype(int)
    else:
        gray = np.zeros(values.shape, dtype=int)
    gray = np.clip(gray, 0, PGM_MAXVAL)
    ny, nx = gray.shape
    lines = ["P2"]
    lines.extend(echo_lines("pgm", {**params, "pgm_min": lo, "pgm_max": hi}))
    lines.append(f"{nx} {ny}")
    lines.append(str(PGM_MAXVAL))
    # North-up rows, filled into one %-template, whose %d are str's bytes.
    template = "\n".join([" ".join(["%d"] * nx)] * ny)
    lines.append(template % tuple(gray[::-1].ravel().tolist()))
    _write_lines(path, lines)


def write_keyvalue(path, items: dict, params: dict | None = None) -> None:
    """Plain `key = value` report, optionally preceded by a config echo."""
    lines = list(echo_lines("report", params)) if params else []
    for key, value in items.items():
        lines.append(f"{key} = {format_value(value)}")
    _write_lines(path, lines)


def fit_report_items(fit: FitResult) -> dict:
    """Flatten a FitResult into report keys."""
    items = {
        "n_peaks": len(fit.peaks),
        "baseline_counts": fit.baseline,
        "residual_norm": fit.residual_norm,
        "converged": fit.converged,
        "iterations": fit.n_iter,
    }
    for k, peak in enumerate(fit.peaks, start=1):
        items[f"peak{k}_center_ghz"] = peak.center
        items[f"peak{k}_fwhm_ghz"] = peak.fwhm
        items[f"peak{k}_contrast"] = peak.contrast
        items[f"peak{k}_center_stderr_ghz"] = peak.center_stderr
    return items


def write_moments(path, positions: np.ndarray, cell_index, m_z: np.ndarray,
                  report_items: dict, params: dict) -> None:
    """Per-site moments as `ix iy m_z` lines.

    ix/iy are the lattice cell indices when known; for textures without
    integer indexing they fall back to (site index, 0).
    """
    lines = echo_lines("reconstruct", params)
    for key, value in report_items.items():
        lines.append(f"# {key} = {format_value(value)}")
    lines.append("# ix iy m_z")
    cells = [(k, 0) for k in range(m_z.size)] if cell_index is None else cell_index
    lines += [f"{int(ix)} {int(iy)} {m:.9g}" for (ix, iy), m in zip(cells, m_z)]
    _write_lines(path, lines)


def load_config(path, schema: dict) -> dict:
    """Parse a `key = value` config file with bracketed sections.

    schema maps each allowed section to its allowed keys.  Returns
    {section: {key: string value}}.  Unknown sections or keys raise
    ValueError, so a typo cannot silently fall back to a default; the
    CLI casts each value by its flag's type.
    """
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh, source=str(path))
    config: dict = {}
    for section in parser.sections():
        if section not in schema:
            raise ValueError(
                f"{path}: unknown config section [{section}]; "
                f"expected one of {sorted(schema)}"
            )
        allowed = schema[section]
        config[section] = {}
        for key, value in parser.items(section):
            if key not in allowed:
                raise ValueError(
                    f"{path}: unknown key {key!r} in section [{section}]; "
                    f"expected one of {sorted(allowed)}"
                )
            config[section][key] = value
    return config
