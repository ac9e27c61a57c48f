"""Command-line frontend tying the simulation chain together.

Subcommands: texture, sweep, scan, isoscan, spectrum, reconstruct.
Each command declares only the settings it reads.  A setting takes its
flag when given, else its key of the --config file ('key = value' lines
under bracketed sections), else its default, which is read from the
library function or dataclass that uses it.  The effective
configuration is echoed as '#' comments into every output.

Exit codes: 0 success, 2 usage or validation error, 3 input-file error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from . import fileio
from .constants import CONSTANTS
from .reconstruct import build_forward, lcurve, solve_tikhonov
from .scan import (
    _CONVENTIONS,
    _MODES,
    ResonanceMap,
    ScanConfig,
    _check_height,
    distance_sweep,
    probe_hamiltonian_at,
    scan_constant_height,
    scan_iso_frequency,
)
from .spectrum import (
    _WINDOW_HALF_WIDTHS,
    SpectrumConfig,
    fit_lorentzians,
    measure_map,
    synthesize,
)
from .spincore import _PREFACTORS, ProbeSpec, ResonancePair, probe_resonances
from .texture import _LATTICES, _PATTERNS, apply_pattern, build_lattice

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_PATTERN_NAMES = {name.lower(): name for name in _PATTERNS}

# [global] config key -> its flag and argparse keywords; the key is the dest.
_GLOBALS = {
    "seed": ("--seed", {"type": int, "help": "base RNG seed"}),
    "exchange_prefactor": ("--prefactor", {
        "choices": _PREFACTORS, "help": "exchange energy prefactor convention"}),
    "resonance_convention": ("--convention", {
        "choices": _CONVENTIONS, "help": "resonance reporting convention"}),
    "probe_d_uev": ("--d-zfs", {
        "type": float, "help": "probe zero-field splitting in ueV"}),
    "probe_g": ("--probe-g", {"type": float, "help": "probe g-factor"}),
}

_REQUIRED = object()  # default of a setting that its flag or config must give


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


def _default(owner, name: str):
    """Default of parameter `name` of a function or dataclass."""
    return inspect.signature(owner).parameters[name].default


def _arg(p, flag: str, key: str, default=None, *,
         config_only: bool = False, **kwargs) -> None:
    """Declare one setting of the command parser p.

    The setting takes its flag when given, else `key` ('section.key') of
    the config file, else `default` (_REQUIRED: one of the first two must
    give it).  A config_only setting is not on p's command line; its
    flag then only describes how a config value is cast.
    """
    if default is not None and default is not _REQUIRED:
        kwargs["help"] = (
            f"{kwargs.get('help', '')} (default {fileio.format_value(default)})"
        ).lstrip()
    owner = argparse.ArgumentParser(add_help=False) if config_only else p
    action = owner.add_argument(flag, default=None, **kwargs)
    p.get_default("settings").append((action, key, default))


def _global_arg(p, name: str, default) -> None:
    flag, kwargs = _GLOBALS[name]
    _arg(p, flag, f"global.{name}", default, dest=name, **kwargs)


def _from_config(action, raw: str, section: str, key: str):
    """A config string cast by its flag's own type and choices."""
    cast = action.type or (_parse_bool if action.const is True else str)
    try:
        value = cast(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"config [{section}] {key}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"config [{section}] {key}: {value!r} is not one of {list(action.choices)}"
        )
    return value


def _resolve(args, config: dict) -> None:
    """Set each declared setting from its flag, else config, else default."""
    for action, key, value in args.settings:
        if getattr(args, action.dest, None) is not None:
            continue
        section, _, name = key.partition(".")
        raw = config.get(section, {}).get(name)
        if raw is not None:
            value = _from_config(action, raw, section, name)
        elif value is _REQUIRED:
            raise ValueError(
                f"missing required {action.option_strings[0]} "
                f"(or [{section}] {name} in config)"
            )
        setattr(args, action.dest, value)


def _echo_globals(args) -> dict:
    return {name: getattr(args, name) for name in _GLOBALS if hasattr(args, name)}


def _grid(args, tex) -> dict:
    """x_range, y_range and step; an edge left unset is the texture's."""
    box = (*tex.positions[:, :2].min(axis=0), *tex.positions[:, :2].max(axis=0))
    flags = (args.xmin, args.ymin, args.xmax, args.ymax)
    x0, y0, x1, y1 = (float(b) if f is None else f for f, b in zip(flags, box))
    return {"x_range": (x0, x1), "y_range": (y0, y1), "step": args.step}


def _probe_config(args, **fields) -> ScanConfig:
    """ScanConfig of the probe, coupling and field settings plus `fields`."""
    return ScanConfig(
        mode=args.mode,
        b_ext=args.bext,
        probe=ProbeSpec(d_zfs=args.probe_d_uev, g=args.probe_g),
        exchange_prefactor=args.exchange_prefactor,
        **fields,
    )


def _spectrum_config(args, **window) -> SpectrumConfig:
    return SpectrumConfig(
        **window,
        f_step=args.f_step,
        linewidth_fwhm=args.linewidth_fwhm,
        contrast=args.contrast,
        baseline_counts=args.baseline_counts,
        seed=args.seed,
        noiseless=args.noiseless,
    )


def _readout_params(spec_cfg: SpectrumConfig) -> dict:
    """Header echo of the readout settings that every window shares."""
    return {
        "f_step_ghz": spec_cfg.f_step,
        "linewidth_fwhm_ghz": spec_cfg.linewidth_fwhm,
        "contrast": spec_cfg.contrast,
        "baseline_counts": spec_cfg.baseline_counts,
        "noiseless": spec_cfg.noiseless,
    }


def _grid_params(x_range, y_range, step) -> dict:
    """Header echo of a raster grid: the x_range, y_range and step of _grid."""
    (x0, x1), (y0, y1) = x_range, y_range
    return {"x_min_angstrom": x0, "x_max_angstrom": x1, "y_min_angstrom": y0,
            "y_max_angstrom": y1, "step_angstrom": step}


def _probe_params(args, cfg: ScanConfig) -> dict:
    """Header echo of the texture and of the coupling that the probe sees."""
    return {"texture": str(args.texture), "mode": cfg.mode,
            "b_ext_tesla": ",".join(f"{b:.9g}" for b in cfg.b_ext)}


def _raster_params(args, cfg: ScanConfig) -> dict:
    return {**_echo_globals(args), **_probe_params(args, cfg),
            **_grid_params(cfg.x_range, cfg.y_range, cfg.step)}


def cmd_texture(args) -> int:
    # Scaled by its largest component first, so that no square overflows.
    direction = np.asarray(args.dir, dtype=float)
    scale = np.max(np.abs(direction))
    if not 0.0 < scale < np.inf:
        raise ValueError(f"--dir must be a finite nonzero vector, got {args.dir}")
    direction = direction / scale
    direction = direction / np.linalg.norm(direction)

    lattice = build_lattice(args.lattice, args.a, args.nx, args.ny)
    tex = apply_pattern(
        lattice, _PATTERN_NAMES[args.pattern], direction, args.spin_mag, args.sample_g
    )
    echo = fileio.echo_lines(
        "texture",
        {
            "lattice": args.lattice,
            "a_angstrom": args.a,
            "nx": args.nx,
            "ny": args.ny,
            "pattern": args.pattern,
            "direction": ",".join(f"{d:.9g}" for d in direction),
            "spin_mag": args.spin_mag,
            "sample_g": args.sample_g,
        },
    )
    fileio.save_texture(tex, args.out, header_comments=echo)
    print(f"wrote {args.out} ({tex.n_sites} sites)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    curve = distance_sweep(
        args.rmin,
        args.rmax,
        args.points,
        log_spacing=args.log,
        exchange_prefactor=args.exchange_prefactor,
        spin_mag=args.spin_mag,
    )
    params = {
        **_echo_globals(args),
        "r_min_angstrom": args.rmin,
        "r_max_angstrom": args.rmax,
        "points": args.points,
        "log": args.log,
        "spin_mag": args.spin_mag,
    }
    fileio.write_sweep_csv(args.out, curve, params)
    if curve.crossover_r is not None:
        print(f"crossover_r_angstrom = {curve.crossover_r:.9g}")
    else:
        print("crossover_r_angstrom = none (no sign change in range)")
    print(f"wrote {args.out} ({curve.r.size} rows)")
    return EXIT_OK


def cmd_scan(args) -> int:
    if not args.measure and (args.measured_out or args.error_out):
        raise ValueError("--measured-out and --error-out need --measure")
    tex = fileio.load_texture(args.texture)
    cfg = _probe_config(args, height=args.height, **_grid(args, tex))
    spec_cfg = _spectrum_config(args) if args.measure else None
    rmap = scan_constant_height(cfg, tex, workers=args.workers)
    params = {**_raster_params(args, cfg), "height_angstrom": cfg.height}
    fileio.write_map_csv(args.out, rmap, params)
    print(f"wrote {args.out} ({rmap.nx} x {rmap.ny} pixels)")
    if args.pgm:
        fileio.write_pgm(args.pgm, rmap.signal(args.resonance_convention), params)
        print(f"wrote {args.pgm}")

    if args.measure:
        fitted, error = measure_map(rmap, spec_cfg)
        params = {**params, **_readout_params(spec_cfg)}
        measured_out = args.measured_out or f"{args.out}.measured.csv"
        fileio.write_map_csv(measured_out, fitted, {**params, "measured": True})
        print(f"wrote {measured_out}")
        if args.error_out:
            fileio.write_error_map_csv(args.error_out, rmap, error, params)
            print(f"wrote {args.error_out}")
        finite = error[np.isfinite(error)]
        n_failed = int(error.size - finite.size)
        if finite.size:
            print(f"measure: median error = {np.median(finite):.6g} GHz, "
                  f"max = {finite.max():.6g} GHz, failed pixels = {n_failed}")
        else:
            print(f"measure: all {n_failed} pixels failed their fits")
    return EXIT_OK


def cmd_isoscan(args) -> int:
    tex = fileio.load_texture(args.texture)
    cfg = _probe_config(args, **_grid(args, tex))
    iso = scan_iso_frequency(cfg, tex, args.fsource, args.zmin, args.zmax)
    params = {
        **_raster_params(args, cfg),
        "f_source_ghz": args.fsource,
        "z_min_angstrom": args.zmin,
        "z_max_angstrom": args.zmax,
    }
    fileio.write_iso_csv(args.out, iso, params)
    n_total = iso.heights.size
    n_oor = int(np.count_nonzero(~np.isfinite(iso.heights)))
    print(f"wrote {args.out} ({iso.nx} x {iso.ny} pixels)")
    print(f"isoscan: {n_oor} of {n_total} pixels out of range")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.resonances is not None and args.texture is not None:
        raise ValueError("--resonances and --texture are mutually exclusive")
    probe = {}  # header echo of the texture, tip and coupling, when given
    if args.resonances is not None:
        if len(args.resonances) not in (1, 2):
            raise ValueError("--resonances takes one or two frequencies in GHz")
        if not np.all(np.isfinite(args.resonances)):
            raise ValueError(f"--resonances must be finite, got {args.resonances} GHz")
        pair = ResonancePair(min(args.resonances), max(args.resonances))
    elif args.texture is not None:
        if args.tip is None:
            raise ValueError("--tip x,y,z is required with --texture")
        _check_height(args.tip[2], "--tip z")
        tex = fileio.load_texture(args.texture)
        cfg = _probe_config(args)
        pair = probe_resonances(probe_hamiltonian_at(np.asarray(args.tip, dtype=float),
                                                     tex, cfg))
        probe = {**_probe_params(args, cfg),
                 "tip_angstrom": ",".join(f"{t:.9g}" for t in args.tip)}
    else:
        raise ValueError("one of --resonances or --texture is required")

    # Without explicit bounds the window covers both branches with the
    # margins of a measured window.
    margin = _WINDOW_HALF_WIDTHS * args.linewidth_fwhm
    spec_cfg = _spectrum_config(
        args,
        f_start=pair.f_minus - margin if args.fstart is None else args.fstart,
        f_stop=pair.f_plus + margin if args.fstop is None else args.fstop,
    )

    spectrum = synthesize(pair, spec_cfg)
    # Without --npeaks the fit starts, as measure_map's do, from the
    # synthesized branches, or from their midpoint when they share a dip.
    n_peaks, guess = args.npeaks, None
    if n_peaks is None:
        lo, hi = pair.f_minus, pair.f_plus
        centers = (lo, hi) if hi - lo > spec_cfg.f_step else (0.5 * (lo + hi),)
        guess = [(c, spec_cfg.linewidth_fwhm, spec_cfg.contrast) for c in centers]
        n_peaks = len(guess)
    fit = fit_lorentzians(spectrum, n_peaks, guess)

    params = {
        **_echo_globals(args),
        **probe,
        "f_minus_ghz": pair.f_minus,
        "f_plus_ghz": pair.f_plus,
        "f_start_ghz": spec_cfg.f_start,
        "f_stop_ghz": spec_cfg.f_stop,
        **_readout_params(spec_cfg),
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


def cmd_reconstruct(args) -> int:
    if args.map is not None and args.synthetic:
        raise ValueError("--map and --synthetic are mutually exclusive")
    tex = fileio.load_texture(args.texture)
    if not 0 <= args.lam < np.inf:
        raise ValueError(f"--lam must be finite and >= 0, got {args.lam}")
    lcurve_lams = args.lcurve or []
    if not all(0 <= lam_k < np.inf for lam_k in lcurve_lams):
        raise ValueError(f"--lcurve values must be finite and >= 0, got {lcurve_lams}")
    probe = ProbeSpec(d_zfs=args.probe_d_uev, g=args.probe_g)  # refuses either out of range

    # Height and mode default to the map's own, else to ScanConfig's.
    if args.map is not None:
        rmap = fileio.load_map_csv(args.map)
        grid = {"x_range": rmap.x_range, "y_range": rmap.y_range, "step": rmap.step}
        height, mode = rmap.height, rmap.mode
    elif args.synthetic:
        grid = _grid(args, tex)
        height, mode = _default(ScanConfig, "height"), _default(ScanConfig, "mode")
    else:
        raise ValueError("either --map or --synthetic is required")
    height = height if args.height is None else args.height
    mode = mode if args.mode is None else args.mode

    fwd = build_forward(
        tex,
        **grid,
        height=height,
        mode=mode,
        exchange_prefactor=args.exchange_prefactor,
        g_probe=probe.g,
    )
    if args.synthetic:
        m_true = tex.spin_mag * tex.spin_dirs[:, 2]
        y = fwd.a @ m_true
    else:
        # Axial shift observable: upper branch minus the zero-field line.
        y = (rmap.f_plus - probe.d_zfs / CONSTANTS.h_planck).ravel()

    result = solve_tikhonov(fwd, y, args.lam)
    report = {
        "sigma_max": result.report.sigma_max,
        "sigma_min": result.report.sigma_min,
        "cond": result.report.cond,
        "rank_deficient": result.report.rank_deficient,
        "residual_norm": result.residual_norm,
        "lam": result.lam,
    }
    params = {
        **_echo_globals(args),
        "texture": str(args.texture),
        "observations": "synthetic" if args.synthetic else str(args.map),
        "mode": mode,
        "height_angstrom": height,
        **_grid_params(**grid),
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
    """(ix, iy) cell indices of a square-lattice texture's sites, or None
    (site index labels) unless they lie inside the header's nx x ny and
    min + a * (ix, iy) gives back every site to rounding."""
    meta = tex.lattice_meta
    if meta.get("type") != "square" or not meta.get("a"):
        return None
    a, xy = float(meta["a"]), tex.positions[:, :2]
    with np.errstate(over="ignore"):  # an a far below the site spacing
        cells = np.round((xy - xy.min(axis=0)) / a)
    exact = np.abs(xy.min(axis=0) + a * cells - xy) <= 1e-9 * (a + np.abs(xy).max())
    inside = (cells >= 0) & (cells < (meta.get("nx", 0), meta.get("ny", 0)))
    return cells.astype(int) if np.all(exact & inside) else None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, like every other CLI failure."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _grid_args(p) -> None:
    """The settings _grid reads, under [scan]."""
    _arg(p, "--step", "scan.step", _default(ScanConfig, "step"), type=float,
         help="pixel step in angstrom")
    for edge in ("xmin", "xmax", "ymin", "ymax"):
        _arg(p, f"--{edge}", f"scan.{edge[0]}_{edge[1:]}", type=float,
             help=f"{edge[1:]} {edge[0]} in angstrom (default: the texture's)")


def _probe_args(p) -> None:
    """The settings _probe_config reads."""
    _arg(p, "--mode", "scan.mode", _default(ScanConfig, "mode"), choices=_MODES)
    _arg(p, "--bext", "scan.b_ext", _default(ScanConfig, "b_ext"), type=_vec3,
         help="external field Bx,By,Bz in tesla")
    _global_arg(p, "exchange_prefactor", _default(ScanConfig, "exchange_prefactor"))
    _global_arg(p, "probe_d_uev", _default(ProbeSpec, "d_zfs"))
    _global_arg(p, "probe_g", _default(ProbeSpec, "g"))


def _readout_args(p, config_only: bool = False) -> None:
    """The settings _spectrum_config reads under [spectrum], and the seed."""
    _global_arg(p, "seed", _default(SpectrumConfig, "seed"))
    for flag, name, text in (
        ("--fstep", "f_step", "sweep step in GHz"),
        ("--linewidth", "linewidth_fwhm", "Lorentzian FWHM in GHz"),
        ("--contrast", "contrast", "dip contrast"),
        ("--baseline", "baseline_counts", "mean counts per point"),
    ):
        _arg(p, flag, f"spectrum.{name}", _default(SpectrumConfig, name),
             config_only=config_only, dest=name, type=float, help=text)
    _arg(p, "--noiseless", "spectrum.noiseless", _default(SpectrumConfig, "noiseless"),
         config_only=config_only, action="store_true",
         help="emit the mean curve without Poisson noise")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinscan",
        description="Scanning spin-defect magnetometry simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="key = value config file with sections")
        p.add_argument("--out", required=True)
        p.set_defaults(func=func, settings=[])
        return p

    p = command("texture", cmd_texture, "generate a spin texture file")
    _arg(p, "--lattice", "texture.lattice", _REQUIRED, choices=_LATTICES)
    _arg(p, "--a", "texture.a", _REQUIRED, type=float,
         help="lattice constant in angstrom")
    _arg(p, "--nx", "texture.nx", _REQUIRED, type=int)
    _arg(p, "--ny", "texture.ny", _REQUIRED, type=int)
    _arg(p, "--pattern", "texture.pattern", "fm", type=str.lower,
         choices=tuple(_PATTERN_NAMES))
    _arg(p, "--dir", "texture.direction", _default(apply_pattern, "direction"),
         type=_vec3, help="spin direction x,y,z")
    _arg(p, "--spin-mag", "texture.spin_mag", _default(apply_pattern, "spin_mag"),
         type=float, help="spin magnitude")
    _arg(p, "--sample-g", "texture.sample_g", _default(apply_pattern, "g"),
         type=float, help="sample g-factor")

    p = command("sweep", cmd_sweep, "interaction scales versus distance")
    _arg(p, "--rmin", "sweep.r_min", _REQUIRED, type=float)
    _arg(p, "--rmax", "sweep.r_max", _REQUIRED, type=float)
    _arg(p, "--points", "sweep.points", _REQUIRED, type=int)
    _arg(p, "--log", "sweep.log", _default(distance_sweep, "log_spacing"),
         action="store_true", help="logarithmic spacing")
    _arg(p, "--spin-mag", "sweep.spin_mag", _default(distance_sweep, "spin_mag"),
         type=float, help="sample spin magnitude for the stray-field column")
    _global_arg(p, "exchange_prefactor", _default(distance_sweep, "exchange_prefactor"))

    p = command("scan", cmd_scan, "constant-height resonance map")
    p.add_argument("--texture", required=True)
    _arg(p, "--height", "scan.height", _default(ScanConfig, "height"), type=float,
         help="tip height in angstrom")
    _grid_args(p)
    _probe_args(p)
    _global_arg(p, "resonance_convention", _default(ResonanceMap.signal, "convention"))
    _readout_args(p, config_only=True)
    _arg(p, "--workers", "scan.workers", _default(scan_constant_height, "workers"),
         type=int, help="parallel row workers")
    p.add_argument("--pgm", help="also render the map as 16-bit PGM")
    p.add_argument("--measure", action="store_true",
                   help="emulate readout of every pixel")
    p.add_argument("--measured-out", dest="measured_out",
                   help="fitted map CSV (default <out>.measured.csv)")
    p.add_argument("--error-out", dest="error_out",
                   help="per-pixel |fitted - true| CSV")

    p = command("isoscan", cmd_isoscan, "iso-frequency height map")
    p.add_argument("--texture", required=True)
    _grid_args(p)
    _probe_args(p)
    _arg(p, "--fsource", "isoscan.f_source", _REQUIRED, type=float,
         help="drive frequency in GHz")
    _arg(p, "--zmin", "isoscan.z_min", 1.0, type=float, help="lower height bound")
    _arg(p, "--zmax", "isoscan.z_max", 20.0, type=float, help="upper height bound")

    p = command("spectrum", cmd_spectrum, "synthesize and fit a readout spectrum")
    p.add_argument("--resonances", type=_float_list,
                   help="one or two resonance frequencies in GHz")
    p.add_argument("--texture", help="texture file (with --tip)")
    p.add_argument("--tip", type=_vec3, help="tip position x,y,z in angstrom")
    _probe_args(p)
    _arg(p, "--fstart", "spectrum.f_start", type=float,
         help="sweep start in GHz (default: below f_minus by the window margin)")
    _arg(p, "--fstop", "spectrum.f_stop", type=float,
         help="sweep stop in GHz (default: above f_plus by the window margin)")
    _readout_args(p)
    p.add_argument("--npeaks", type=int, help="number of dips to fit")
    p.add_argument("--report", help="write the fit report to this file")

    p = command("reconstruct", cmd_reconstruct, "invert a map back to per-site moments")
    p.add_argument("--texture", required=True, help="site geometry (and truth)")
    p.add_argument("--map", help="measured map CSV to invert")
    _arg(p, "--synthetic", "reconstruct.synthetic", False, action="store_true",
         help="invert noiseless forward data from the texture itself")
    _arg(p, "--height", "reconstruct.height", type=float, help="tip height in "
         f"angstrom (default: the map's, else {_default(ScanConfig, 'height')})")
    _arg(p, "--mode", "reconstruct.mode", choices=_MODES,
         help=f"default: the map's, else {_default(ScanConfig, 'mode')}")
    _grid_args(p)
    _global_arg(p, "exchange_prefactor", _default(build_forward, "exchange_prefactor"))
    _global_arg(p, "probe_d_uev", _default(ProbeSpec, "d_zfs"))
    _global_arg(p, "probe_g", _default(build_forward, "g_probe"))
    _arg(p, "--lam", "reconstruct.lam", 1e-6, type=float, help="Tikhonov strength")
    p.add_argument("--lcurve", type=_float_list,
                   help="comma-separated lam grid to tabulate")

    # The config schema: every key some command declares, valid in the
    # config file of any command.
    schema: dict = {}
    for p in sub.choices.values():
        for _, key, _ in p.get_default("settings"):
            section, _, name = key.partition(".")
            schema.setdefault(section, set()).add(name)
    parser.set_defaults(schema=schema)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args, fileio.load_config(args.config, args.schema) if args.config else {})
        return args.func(args)
    except (fileio.TextureParseError, fileio.MapParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
