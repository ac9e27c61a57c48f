"""File formats: map/sweep/spectrum CSV, PGM images, key-value reports.

All writers are deterministic: floats use 9 significant digits, keys are
emitted in sorted order, and no timestamps or environment details enter
the output, so equal inputs produce byte-identical files.  Every output
starts with '#' comment lines echoing the effective configuration.
"""

from __future__ import annotations

import configparser

import numpy as np

from .scan import Grid, IsoScanMap, ResonanceMap, SweepCurve
from .spectrum import FitResult, Spectrum

__all__ = [
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
    "CONFIG_SCHEMA",
]

PGM_MAXVAL = 65535


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


def _grid_rows(grid: Grid, *columns) -> list[str]:
    """CSV rows 'x,y,values...' over the grid's pixels, x varying fastest."""
    tips = grid.tips(0.0)
    columns = (tips[:, 0], tips[:, 1], *(np.ravel(c) for c in columns))
    rows = zip(*(c.tolist() for c in columns))
    return [",".join(f"{v:.9g}" for v in row) for row in rows]


def write_map_csv(path, rmap: ResonanceMap, params: dict) -> None:
    """Resonance map as CSV, row-major with x varying fastest."""
    meta = {
        "map_x0_angstrom": rmap.x0,
        "map_y0_angstrom": rmap.y0,
        "map_step_angstrom": rmap.step,
        "map_nx": rmap.nx,
        "map_ny": rmap.ny,
        "map_height_angstrom": rmap.height,
        "map_mode": rmap.mode,
    }
    lines = echo_lines("map", {**params, **meta})
    lines.append("x_angstrom,y_angstrom,f_minus_ghz,f_plus_ghz")
    lines += _grid_rows(rmap, rmap.f_minus, rmap.f_plus)
    _write_lines(path, lines)


def _parse_comment_meta(lines: list[str]) -> dict:
    meta = {}
    for line in lines:
        body = line.lstrip("#").strip()
        if "=" in body:
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
    return meta


class MapParseError(ValueError):
    """Malformed map CSV; message carries the path and, for a bad row,
    its line number."""


def load_map_csv(path) -> ResonanceMap:
    """Read a map CSV back into a ResonanceMap (field channels absent).

    Grid metadata comes from the comment header when present, otherwise
    it is inferred from the coordinate columns.
    """
    comments: list[str] = []
    rows: list[list[float]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line)
                continue
            if line.startswith("x_angstrom"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise MapParseError(
                    f"{path}:{lineno}: map rows need 4 columns, got {len(parts)}"
                )
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise MapParseError(
                    f"{path}:{lineno}: non-numeric map row {line!r}"
                ) from None
            if not np.all(np.isfinite(values)):
                raise MapParseError(
                    f"{path}:{lineno}: non-finite value in map row {line!r}"
                )
            rows.append(values)
    if not rows:
        raise MapParseError(f"{path}: no data rows")
    data = np.array(rows)
    meta = _parse_comment_meta(comments)

    xs = np.unique(data[:, 0])
    ys = np.unique(data[:, 1])
    try:
        nx = int(meta.get("map_nx", len(xs)))
        ny = int(meta.get("map_ny", len(ys)))
        x0 = float(meta.get("map_x0_angstrom", xs[0]))
        y0 = float(meta.get("map_y0_angstrom", ys[0]))
        step = float(meta.get("map_step_angstrom", xs[1] - xs[0] if len(xs) > 1 else 1.0))
        height = float(meta.get("map_height_angstrom", 0.0))
    except ValueError as exc:
        raise MapParseError(f"{path}: malformed grid header: {exc}") from None
    if nx * ny != data.shape[0]:
        raise MapParseError(
            f"{path}: {data.shape[0]} rows do not fill a {nx} x {ny} grid"
        )
    return ResonanceMap(
        x0=x0,
        y0=y0,
        step=step,
        nx=nx,
        ny=ny,
        height=height,
        mode=meta.get("map_mode", "unknown"),
        f_minus=data[:, 2].reshape(ny, nx),
        f_plus=data[:, 3].reshape(ny, nx),
    )


def write_error_map_csv(path, rmap: ResonanceMap, error: np.ndarray, params: dict) -> None:
    """Per-pixel |fitted - true| (GHz) on the map grid."""
    lines = echo_lines("error-map", params)
    lines.append("x_angstrom,y_angstrom,error_ghz")
    lines += _grid_rows(rmap, error)
    _write_lines(path, lines)


def write_iso_csv(path, iso: IsoScanMap, params: dict) -> None:
    """Iso-frequency height map; out-of-range pixels emitted as nan."""
    meta = {
        "iso_f_source_ghz": iso.f_source,
        "iso_z_min_angstrom": iso.z_min,
        "iso_z_max_angstrom": iso.z_max,
    }
    lines = echo_lines("isoscan", {**params, **meta})
    lines.append("x_angstrom,y_angstrom,z_angstrom")
    lines += _grid_rows(iso, iso.heights)
    _write_lines(path, lines)


def write_sweep_csv(path, curve: SweepCurve, params: dict) -> None:
    meta = {}
    if curve.crossover_r is not None:
        meta["crossover_r_angstrom"] = curve.crossover_r
    lines = echo_lines("sweep", {**params, **meta})
    lines.append("r_angstrom,J_uev,Edd_uev,Bstray_T,f_ghz")
    for k in range(curve.r.size):
        lines.append(
            f"{curve.r[k]:.9g},{curve.j_ex[k]:.9g},{curve.e_dd[k]:.9g},"
            f"{curve.b_stray[k]:.9g},{curve.f_res[k]:.9g}"
        )
    _write_lines(path, lines)


def write_spectrum_csv(path, spec: Spectrum, params: dict) -> None:
    lines = echo_lines("spectrum", params)
    lines.append("f_ghz,counts")
    for f, c in zip(spec.frequencies, spec.counts):
        lines.append(f"{f:.9g},{c:.9g}")
    _write_lines(path, lines)


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
    for iy in range(ny - 1, -1, -1):
        lines.append(" ".join(str(v) for v in gray[iy]))
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
    for k in range(m_z.size):
        if cell_index is not None:
            ix, iy = int(cell_index[k][0]), int(cell_index[k][1])
        else:
            ix, iy = k, 0
        lines.append(f"{ix} {iy} {m_z[k]:.9g}")
    _write_lines(path, lines)


# Config file schema: section -> allowed keys.  Unknown sections or keys
# are rejected so typos cannot silently fall back to defaults.
CONFIG_SCHEMA = {
    "global": {
        "seed",
        "exchange_prefactor",
        "resonance_convention",
        "probe_d_uev",
        "probe_g",
    },
    "texture": {
        "lattice",
        "a",
        "nx",
        "ny",
        "pattern",
        "direction",
        "spin_mag",
        "sample_g",
    },
    "sweep": {"r_min", "r_max", "points", "log", "spin_mag"},
    "scan": {
        "height",
        "x_min",
        "x_max",
        "y_min",
        "y_max",
        "step",
        "mode",
        "b_ext",
        "workers",
    },
    "isoscan": {"f_source", "z_min", "z_max"},
    "spectrum": {
        "f_start",
        "f_stop",
        "f_step",
        "linewidth_fwhm",
        "contrast",
        "baseline_counts",
        "noiseless",
    },
    "reconstruct": {"lam", "mode", "height", "synthetic"},
}


def load_config(path) -> dict:
    """Parse a `key = value` config file with bracketed sections.

    Returns {section: {key: string value}}.  Unknown sections or keys
    raise ValueError; value validation belongs to the owning module.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh, source=str(path))
    config: dict = {}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ValueError(
                f"{path}: unknown config section [{section}]; "
                f"expected one of {sorted(CONFIG_SCHEMA)}"
            )
        allowed = CONFIG_SCHEMA[section]
        config[section] = {}
        for key, value in parser.items(section):
            if key not in allowed:
                raise ValueError(
                    f"{path}: unknown key {key!r} in section [{section}]; "
                    f"expected one of {sorted(allowed)}"
                )
            config[section][key] = value
    return config
