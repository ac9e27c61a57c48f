"""Command-line frontend tying the simulation chain together.

Subcommands: texture, sweep, scan, isoscan, spectrum, reconstruct.
Every command accepts --config <file> ('key = value' lines under
bracketed sections); explicit flags override config values, and the
effective configuration is echoed as '#' comments into every output.

Exit codes: 0 success, 2 usage or validation error, 3 input-file error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .constants import CONSTANTS
from .reconstruct import build_forward, lcurve, solve_tikhonov
from .scan import (
    ScanConfig,
    _check_height,
    _check_lateral,
    distance_sweep,
    probe_hamiltonian_at,
    scan_constant_height,
    scan_iso_frequency,
)
from .spectrum import SpectrumConfig, fit_lorentzians, measure_map, synthesize
from .spincore import ProbeSpec, ResonancePair, probe_resonances
from .texture import (
    TextureParseError,
    apply_pattern,
    build_lattice,
    load_texture,
    save_texture,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_PATTERN_NAMES = {"fm": "FM", "afm-neel": "AFM-Neel", "stripe": "stripe"}


def _vec3(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated numbers, got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric vector {text!r}") from None


def _float_list(text: str) -> list:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric list {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean value {text!r}")


class _Settings:
    """Flag-over-config-over-default value resolution for one command."""

    def __init__(self, config: dict):
        self.config = config

    def get(self, flag_value, section: str, key: str, default=None, cast=str):
        if flag_value is not None:
            return flag_value
        raw = self.config.get(section, {}).get(key)
        if raw is None:
            return default
        if cast is bool:
            return _parse_bool(raw)
        if cast is tuple:
            parts = raw.split(",")
            if len(parts) != 3:
                raise ValueError(f"config {section}.{key}: need three components")
            return tuple(float(p) for p in parts)
        return cast(raw)

    def require(self, flag_value, section: str, key: str, flag: str, cast=str):
        value = self.get(flag_value, section, key, default=None, cast=cast)
        if value is None:
            raise ValueError(f"missing required {flag} (or [{section}] {key} in config)")
        return value


def _globals_from(settings: _Settings, args) -> dict:
    return {
        "seed": settings.get(args.seed, "global", "seed", 0, int),
        "exchange_prefactor": settings.get(
            args.prefactor, "global", "exchange_prefactor", "rydberg"
        ),
        "resonance_convention": settings.get(
            args.convention, "global", "resonance_convention", "transition"
        ),
        "probe_d_uev": settings.get(args.d_zfs, "global", "probe_d_uev", 14.4, float),
        "probe_g": settings.get(
            args.probe_g, "global", "probe_g", CONSTANTS.g_e_default, float
        ),
    }


def _spectrum_config(settings: _Settings, args, glob: dict,
                     f_start=None, f_stop=None) -> SpectrumConfig:
    get = settings.get
    return SpectrumConfig(
        f_start=get(f_start, "spectrum", "f_start", 2.5, float),
        f_stop=get(f_stop, "spectrum", "f_stop", 4.5, float),
        f_step=get(getattr(args, "fstep", None), "spectrum", "f_step", 0.02, float),
        linewidth_fwhm=get(
            getattr(args, "linewidth", None), "spectrum", "linewidth_fwhm", 0.1, float
        ),
        contrast=get(
            getattr(args, "contrast", None), "spectrum", "contrast", 0.1, float
        ),
        baseline_counts=get(
            getattr(args, "baseline", None), "spectrum", "baseline_counts", 1e5, float
        ),
        seed=glob["seed"],
        noiseless=bool(
            getattr(args, "noiseless", False)
            or get(None, "spectrum", "noiseless", False, bool)
        ),
    )


def _texture_bbox(tex):
    xs = tex.positions[:, 0]
    ys = tex.positions[:, 1]
    return (float(xs.min()), float(xs.max())), (float(ys.min()), float(ys.max()))


def _scan_config(settings: _Settings, args, glob: dict, tex) -> ScanConfig:
    bbox_x, bbox_y = _texture_bbox(tex)
    get = settings.get
    x_min = get(args.xmin, "scan", "x_min", bbox_x[0], float)
    x_max = get(args.xmax, "scan", "x_max", bbox_x[1], float)
    y_min = get(args.ymin, "scan", "y_min", bbox_y[0], float)
    y_max = get(args.ymax, "scan", "y_max", bbox_y[1], float)
    return ScanConfig(
        height=get(args.height, "scan", "height", 4.0, float),
        x_range=(x_min, x_max),
        y_range=(y_min, y_max),
        step=get(args.step, "scan", "step", 0.25, float),
        mode=get(args.mode, "scan", "mode", "exchange"),
        b_ext=get(args.bext, "scan", "b_ext", (0.0, 0.0, 0.0), tuple),
        probe=ProbeSpec(d_zfs=glob["probe_d_uev"], g=glob["probe_g"]),
        exchange_prefactor=glob["exchange_prefactor"],
        resonance_convention=glob["resonance_convention"],
    )


def _scan_params(cfg: ScanConfig, glob: dict, texture_path) -> dict:
    return {
        **glob,
        "texture": str(texture_path),
        "height_angstrom": cfg.height,
        "x_min_angstrom": cfg.x_range[0],
        "x_max_angstrom": cfg.x_range[1],
        "y_min_angstrom": cfg.y_range[0],
        "y_max_angstrom": cfg.y_range[1],
        "step_angstrom": cfg.step,
        "mode": cfg.mode,
        "b_ext_tesla": ",".join(f"{b:.9g}" for b in cfg.b_ext),
    }


def cmd_texture(args, config) -> int:
    settings = _Settings(config)
    lattice_type = settings.require(args.lattice, "texture", "lattice", "--lattice")
    a = settings.require(args.a, "texture", "a", "--a", float)
    nx = settings.require(args.nx, "texture", "nx", "--nx", int)
    ny = settings.require(args.ny, "texture", "ny", "--ny", int)
    pattern_name = settings.get(args.pattern, "texture", "pattern", "fm").lower()
    if pattern_name not in _PATTERN_NAMES:
        raise ValueError(
            f"unknown pattern {pattern_name!r}; "
            f"expected one of {sorted(_PATTERN_NAMES)}"
        )
    direction = np.asarray(
        settings.get(args.dir, "texture", "direction", (0.0, 0.0, 1.0), tuple),
        dtype=float,
    )
    norm = np.linalg.norm(direction)
    if norm == 0:
        raise ValueError("--dir must be a nonzero vector")
    direction = direction / norm
    spin_mag = settings.get(args.spin_mag, "texture", "spin_mag", 0.5, float)
    sample_g = settings.get(args.sample_g, "texture", "sample_g", 2.0, float)

    lattice = build_lattice(lattice_type, a, nx, ny)
    tex = apply_pattern(
        lattice, _PATTERN_NAMES[pattern_name], direction, spin_mag, sample_g
    )
    echo = fileio.echo_lines(
        "texture",
        {
            "lattice": lattice_type,
            "a_angstrom": a,
            "nx": nx,
            "ny": ny,
            "pattern": pattern_name,
            "direction": ",".join(f"{d:.9g}" for d in direction),
            "spin_mag": spin_mag,
            "sample_g": sample_g,
        },
    )
    save_texture(tex, args.out, header_comments=echo)
    print(f"wrote {args.out} ({tex.n_sites} sites)")
    return EXIT_OK


def cmd_sweep(args, config) -> int:
    settings = _Settings(config)
    glob = _globals_from(settings, args)
    r_min = settings.require(args.rmin, "sweep", "r_min", "--rmin", float)
    r_max = settings.require(args.rmax, "sweep", "r_max", "--rmax", float)
    points = settings.require(args.points, "sweep", "points", "--points", int)
    log_spacing = bool(
        args.log or settings.get(None, "sweep", "log", False, bool)
    )
    spin_mag = settings.get(args.spin_mag, "sweep", "spin_mag", 0.5, float)

    curve = distance_sweep(
        r_min,
        r_max,
        points,
        log_spacing=log_spacing,
        exchange_prefactor=glob["exchange_prefactor"],
        spin_mag=spin_mag,
    )
    params = {
        **glob,
        "r_min_angstrom": r_min,
        "r_max_angstrom": r_max,
        "points": points,
        "log": log_spacing,
        "spin_mag": spin_mag,
    }
    fileio.write_sweep_csv(args.out, curve, params)
    if curve.crossover_r is not None:
        print(f"crossover_r_angstrom = {curve.crossover_r:.9g}")
    else:
        print("crossover_r_angstrom = none (no sign change in range)")
    print(f"wrote {args.out} ({curve.r.size} rows)")
    return EXIT_OK


def cmd_scan(args, config) -> int:
    settings = _Settings(config)
    glob = _globals_from(settings, args)
    tex = load_texture(args.texture)
    cfg = _scan_config(settings, args, glob, tex)
    workers = settings.get(args.workers, "scan", "workers", 1, int)

    rmap = scan_constant_height(cfg, tex, workers=workers)
    params = _scan_params(cfg, glob, args.texture)
    fileio.write_map_csv(args.out, rmap, params)
    print(f"wrote {args.out} ({rmap.nx} x {rmap.ny} pixels)")
    if args.pgm:
        fileio.write_pgm(
            args.pgm, rmap.signal(cfg.resonance_convention), params
        )
        print(f"wrote {args.pgm}")

    if args.measure:
        spec_cfg = _spectrum_config(settings, args, glob)
        fitted, error = measure_map(rmap, spec_cfg)
        measured_out = args.measured_out or f"{args.out}.measured.csv"
        fileio.write_map_csv(measured_out, fitted, {**params, "measured": True})
        print(f"wrote {measured_out}")
        if args.error_out:
            fileio.write_error_map_csv(args.error_out, rmap, error, params)
            print(f"wrote {args.error_out}")
        finite = error[np.isfinite(error)]
        n_failed = int(error.size - finite.size)
        median = float(np.median(finite)) if finite.size else float("nan")
        worst = float(np.max(finite)) if finite.size else float("nan")
        print(
            f"measure: median error = {median:.6g} GHz, "
            f"max = {worst:.6g} GHz, failed pixels = {n_failed}"
        )
    return EXIT_OK


def cmd_isoscan(args, config) -> int:
    settings = _Settings(config)
    glob = _globals_from(settings, args)
    tex = load_texture(args.texture)
    cfg = _scan_config(settings, args, glob, tex)
    f_source = settings.require(args.fsource, "isoscan", "f_source", "--fsource", float)
    z_min = settings.get(args.zmin, "isoscan", "z_min", 1.0, float)
    z_max = settings.get(args.zmax, "isoscan", "z_max", 20.0, float)

    iso = scan_iso_frequency(cfg, tex, f_source, z_min, z_max)
    params = {
        **_scan_params(cfg, glob, args.texture),
        "f_source_ghz": f_source,
        "z_min_angstrom": z_min,
        "z_max_angstrom": z_max,
    }
    fileio.write_iso_csv(args.out, iso, params)
    n_total = iso.heights.size
    n_oor = int(np.count_nonzero(~np.isfinite(iso.heights)))
    print(f"wrote {args.out} ({iso.nx} x {iso.ny} pixels)")
    print(f"isoscan: {n_oor} of {n_total} pixels out of range")
    return EXIT_OK


def cmd_spectrum(args, config) -> int:
    settings = _Settings(config)
    glob = _globals_from(settings, args)

    if args.resonances is not None and args.texture is not None:
        raise ValueError("--resonances and --texture are mutually exclusive")
    if args.resonances is not None:
        values = args.resonances
        if len(values) == 1:
            pair = ResonancePair(f_minus=values[0], f_plus=values[0])
        elif len(values) == 2:
            lo, hi = sorted(values)
            pair = ResonancePair(f_minus=lo, f_plus=hi)
        else:
            raise ValueError("--resonances takes one or two frequencies in GHz")
    elif args.texture is not None:
        if args.tip is None:
            raise ValueError("--tip x,y,z is required with --texture")
        _check_lateral(args.tip[0], "--tip x")
        _check_lateral(args.tip[1], "--tip y")
        _check_height(args.tip[2], "--tip z")
        tex = load_texture(args.texture)
        cfg = _scan_config(settings, args, glob, tex)
        h = probe_hamiltonian_at(np.asarray(args.tip, dtype=float), tex, cfg)
        pair = probe_resonances(h)
    else:
        raise ValueError("one of --resonances or --texture is required")

    # Auto window: cover both branches with 20-linewidth margins unless
    # explicit bounds are given.
    linewidth = settings.get(args.linewidth, "spectrum", "linewidth_fwhm", 0.1, float)
    margin = 20.0 * linewidth
    f_start = args.fstart if args.fstart is not None else pair.f_minus - margin
    f_stop = args.fstop if args.fstop is not None else pair.f_plus + margin
    spec_cfg = _spectrum_config(settings, args, glob, f_start=f_start, f_stop=f_stop)

    spectrum = synthesize(pair, spec_cfg)
    distinct = pair.f_plus - pair.f_minus > spec_cfg.f_step
    n_peaks = args.npeaks if args.npeaks is not None else (2 if distinct else 1)
    fit = fit_lorentzians(spectrum, n_peaks)

    params = {
        **glob,
        "f_minus_ghz": pair.f_minus,
        "f_plus_ghz": pair.f_plus,
        "f_start_ghz": spec_cfg.f_start,
        "f_stop_ghz": spec_cfg.f_stop,
        "f_step_ghz": spec_cfg.f_step,
        "linewidth_fwhm_ghz": spec_cfg.linewidth_fwhm,
        "contrast": spec_cfg.contrast,
        "baseline_counts": spec_cfg.baseline_counts,
        "noiseless": spec_cfg.noiseless,
        "n_peaks": n_peaks,
    }
    fileio.write_spectrum_csv(args.out, spectrum, params)
    print(f"wrote {args.out} ({spectrum.frequencies.size} points)")
    items = fileio.fit_report_items(fit)
    if args.report:
        fileio.write_keyvalue(args.report, items, params)
        print(f"wrote {args.report}")
    for key, value in items.items():
        print(f"{key} = {fileio.format_value(value)}")
    return EXIT_OK


def cmd_reconstruct(args, config) -> int:
    settings = _Settings(config)
    glob = _globals_from(settings, args)
    tex = load_texture(args.texture)
    lam = settings.get(args.lam, "reconstruct", "lam", 1e-6, float)
    if not 0 <= lam < np.inf:
        raise ValueError(f"--lam must be finite and >= 0, got {lam}")
    lcurve_lams = args.lcurve or []
    if not all(0 <= lam_k < np.inf for lam_k in lcurve_lams):
        raise ValueError(f"--lcurve values must be finite and >= 0, got {lcurve_lams}")
    synthetic = bool(
        args.synthetic or settings.get(None, "reconstruct", "synthetic", False, bool)
    )

    if args.map is not None:
        rmap = fileio.load_map_csv(args.map)
        height = settings.get(args.height, "reconstruct", "height",
                              rmap.height, float)
        mode = settings.get(args.mode, "reconstruct", "mode", rmap.mode)
        grid = (rmap.x_range, rmap.y_range)
        step = rmap.step
    else:
        if not synthetic:
            raise ValueError("either --map or --synthetic is required")
        bbox_x, bbox_y = _texture_bbox(tex)
        height = settings.get(args.height, "reconstruct", "height", 4.0, float)
        mode = settings.get(args.mode, "reconstruct", "mode", "exchange")
        step = settings.get(args.step, "scan", "step", 0.25, float)
        grid = (
            (settings.get(args.xmin, "scan", "x_min", bbox_x[0], float),
             settings.get(args.xmax, "scan", "x_max", bbox_x[1], float)),
            (settings.get(args.ymin, "scan", "y_min", bbox_y[0], float),
             settings.get(args.ymax, "scan", "y_max", bbox_y[1], float)),
        )

    fwd = build_forward(
        tex,
        grid[0],
        grid[1],
        step,
        height,
        mode,
        exchange_prefactor=glob["exchange_prefactor"],
        g_probe=glob["probe_g"],
    )
    if synthetic:
        m_true = tex.spin_mag * tex.spin_dirs[:, 2]
        y = fwd.a @ m_true
    else:
        # Axial shift observable: upper branch minus the zero-field line.
        y = (rmap.f_plus - glob["probe_d_uev"] / CONSTANTS.h_planck).ravel()

    result = solve_tikhonov(fwd, y, lam)
    report = {
        "sigma_max": result.report.sigma_max,
        "sigma_min": result.report.sigma_min,
        "cond": result.report.cond,
        "rank_deficient": result.report.rank_deficient,
        "residual_norm": result.residual_norm,
        "lam": result.lam,
    }
    params = {
        **glob,
        "texture": str(args.texture),
        "observations": "synthetic" if synthetic else str(args.map),
        "mode": mode,
        "height_angstrom": height,
        "step_angstrom": step,
    }
    cell_index = _square_cell_indices(tex)
    fileio.write_moments(args.out, tex.positions, cell_index, result.m_z,
                         report, params)
    print(f"wrote {args.out} ({result.m_z.size} sites)")
    for key, value in report.items():
        print(f"{key} = {fileio.format_value(value)}")

    if lcurve_lams:
        for lam_k, residual, norm in lcurve(fwd, y, lcurve_lams):
            print(
                f"lcurve: lam = {lam_k:.9g}, residual = {residual:.9g}, "
                f"norm = {norm:.9g}"
            )
    return EXIT_OK


def _square_cell_indices(tex):
    """Recover (ix, iy) cell indices for square-lattice textures."""
    meta = tex.lattice_meta
    if meta.get("type") != "square" or not meta.get("a"):
        return None
    a = float(meta["a"])
    x0 = tex.positions[:, 0].min()
    y0 = tex.positions[:, 1].min()
    ix = np.round((tex.positions[:, 0] - x0) / a).astype(int)
    iy = np.round((tex.positions[:, 1] - y0) / a).astype(int)
    return np.column_stack([ix, iy])


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, like every other CLI failure."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="key = value config file with sections")
    shared.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    shared.add_argument(
        "--prefactor",
        choices=("rydberg", "hartree"),
        help="exchange energy prefactor convention (default rydberg)",
    )
    shared.add_argument(
        "--convention",
        choices=("transition", "splitting"),
        help="resonance reporting convention (default transition)",
    )
    shared.add_argument(
        "--d-zfs", dest="d_zfs", type=float,
        help="probe zero-field splitting in ueV (default 14.4)",
    )
    shared.add_argument(
        "--probe-g", dest="probe_g", type=float,
        help=f"probe g-factor (default {CONSTANTS.g_e_default})",
    )

    parser = _Parser(
        prog="spinscan",
        description="Scanning spin-defect magnetometry simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("texture", parents=[shared],
                       help="generate a spin texture file")
    p.add_argument("--lattice", choices=("square", "triangular", "honeycomb"))
    p.add_argument("--a", type=float, help="lattice constant in angstrom")
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--pattern", help="fm, afm-neel, or stripe (default fm)")
    p.add_argument("--dir", type=_vec3, help="spin direction x,y,z (default 0,0,1)")
    p.add_argument("--spin-mag", dest="spin_mag", type=float,
                   help="spin magnitude (default 0.5)")
    p.add_argument("--sample-g", dest="sample_g", type=float,
                   help="sample g-factor (default 2.0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_texture)

    p = sub.add_parser("sweep", parents=[shared],
                       help="interaction scales versus distance")
    p.add_argument("--rmin", type=float)
    p.add_argument("--rmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--log", action="store_true", help="logarithmic spacing")
    p.add_argument("--spin-mag", dest="spin_mag", type=float,
                   help="sample spin magnitude for the stray-field column")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    def add_grid_flags(p):
        p.add_argument("--height", type=float, help="tip height in angstrom")
        p.add_argument("--step", type=float, help="pixel step in angstrom")
        p.add_argument("--xmin", type=float)
        p.add_argument("--xmax", type=float)
        p.add_argument("--ymin", type=float)
        p.add_argument("--ymax", type=float)
        p.add_argument("--mode", choices=("dipolar", "exchange", "both"))
        p.add_argument("--bext", type=_vec3, help="external field Bx,By,Bz in tesla")

    p = sub.add_parser("scan", parents=[shared],
                       help="constant-height resonance map")
    p.add_argument("--texture", required=True)
    add_grid_flags(p)
    p.add_argument("--workers", type=int, help="parallel row workers (default 1)")
    p.add_argument("--out", required=True)
    p.add_argument("--pgm", help="also render the map as 16-bit PGM")
    p.add_argument("--measure", action="store_true",
                   help="emulate readout of every pixel")
    p.add_argument("--measured-out", dest="measured_out",
                   help="fitted map CSV (default <out>.measured.csv)")
    p.add_argument("--error-out", dest="error_out",
                   help="per-pixel |fitted - true| CSV")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("isoscan", parents=[shared],
                       help="iso-frequency height map")
    p.add_argument("--texture", required=True)
    add_grid_flags(p)
    p.add_argument("--fsource", type=float, help="drive frequency in GHz")
    p.add_argument("--zmin", type=float, help="lower height bound (default 1)")
    p.add_argument("--zmax", type=float, help="upper height bound (default 20)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_isoscan)

    p = sub.add_parser("spectrum", parents=[shared],
                       help="synthesize and fit a readout spectrum")
    p.add_argument("--resonances", type=_float_list,
                   help="one or two resonance frequencies in GHz")
    p.add_argument("--texture", help="texture file (with --tip)")
    p.add_argument("--tip", type=_vec3, help="tip position x,y,z in angstrom")
    add_grid_flags(p)
    p.add_argument("--fstart", type=float, help="sweep start in GHz")
    p.add_argument("--fstop", type=float, help="sweep stop in GHz")
    p.add_argument("--fstep", type=float, help="sweep step in GHz (default 0.02)")
    p.add_argument("--linewidth", type=float,
                   help="Lorentzian FWHM in GHz (default 0.1)")
    p.add_argument("--contrast", type=float, help="dip contrast (default 0.1)")
    p.add_argument("--baseline", type=float,
                   help="mean counts per point (default 1e5)")
    p.add_argument("--noiseless", action="store_true",
                   help="emit the mean curve without Poisson noise")
    p.add_argument("--npeaks", type=int, help="number of dips to fit")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write the fit report to this file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("reconstruct", parents=[shared],
                       help="invert a map back to per-site moments")
    p.add_argument("--texture", required=True, help="site geometry (and truth)")
    p.add_argument("--map", help="measured map CSV to invert")
    p.add_argument("--synthetic", action="store_true",
                   help="invert noiseless forward data from the texture itself")
    add_grid_flags(p)
    p.add_argument("--lam", type=float, help="Tikhonov strength (default 1e-6)")
    p.add_argument("--lcurve", type=_float_list,
                   help="comma-separated lam grid to tabulate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = fileio.load_config(args.config) if args.config else {}
        return args.func(args, config)
    except (TextureParseError, fileio.MapParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
