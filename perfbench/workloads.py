"""The benchmark's four workloads of the spinscan measurement chain.

Each workload derives its inputs from the seed alone, builds its texture
through spinscan's texture layer (the set-up), runs one job through the
same public calls the CLI commands make, and checks the job's output
files against ``reference``, which shares no code with the program.
The seed moves the grid origin by a fraction of a step, the spin
direction or Neel phase, the readout's noise streams and the pixels that
are checked; it never changes how many pixels or sites a job handles.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference as ref
from spinscan import (
    CONSTANTS,
    ScanConfig,
    SpectrumConfig,
    apply_pattern,
    build_forward,
    build_lattice,
    lcurve,
    load_texture,
    measure_map,
    save_texture,
    scan_constant_height,
    scan_iso_frequency,
    solve_tikhonov,
)
from spinscan import fileio

LATTICE_A = 3.0
SPIN_MAG = 0.5
SAMPLE_G = 2.0
D_ZFS_UEV = 14.4          # probe default, README "Units, model, and defaults"
N_CHECKED_PIXELS = 100

# A value exact to the 9 significant digits the CSV writers print may
# differ from the reference by one unit in the ninth digit.
RTOL_9_DIGITS = 2e-8


def _read_table(path: Path) -> np.ndarray:
    """Numeric CSV rows, skipping '#' comments and the column header."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and not line[0].isalpha():
                rows.append([float(v) for v in line.split(",")])
    return np.array(rows)


def _read_moments(path: Path) -> dict:
    """{(ix, iy): m_z} from a moments file."""
    moments = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                ix, iy, m_z = line.split()
                moments[(int(ix), int(iy))] = float(m_z)
    return moments


def _tilted(rng: np.random.Generator, max_polar_deg: float) -> tuple:
    """Unit vector within max_polar_deg of +z, azimuth uniform."""
    theta = math.radians(max_polar_deg) * rng.random()
    phi = 2.0 * math.pi * rng.random()
    return (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
            math.cos(theta))


class Workload:
    """Inputs from a seed, set-up, one job and its checks."""

    name = ""
    n_cells = 0            # square lattice of n_cells x n_cells sites
    pattern = "FM"
    step = 0.5
    n_px = 0               # pixels per grid axis
    calibration = "array"  # calibrate.py kernel of the job's code type

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.origin = tuple(self.step * self.rng.random(2))
        self.direction = (0.0, 0.0, 1.0)

    # -- inputs ---------------------------------------------------------
    def grid_ranges(self):
        span = self.step * (self.n_px - 1)
        return tuple((o, o + span) for o in self.origin)

    def sites(self):
        """Independent site positions and spin vectors, keyed like the
        lattice's cell indices."""
        ii, jj = np.meshgrid(np.arange(self.n_cells), np.arange(self.n_cells))
        ii, jj = ii.ravel(), jj.ravel()
        pos = np.column_stack([ii * LATTICE_A, jj * LATTICE_A, np.zeros(ii.size)])
        sign = (-1.0) ** (ii + jj) if self.pattern == "AFM-Neel" else np.ones(ii.size)
        spins = SPIN_MAG * sign[:, None] * np.asarray(self.direction)[None, :]
        return pos, spins, ii, jj

    def tips(self, height):
        xs = self.origin[0] + self.step * np.arange(self.n_px)
        ys = self.origin[1] + self.step * np.arange(self.n_px)
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, height)])

    def checked_pixels(self):
        rng = np.random.default_rng([self.seed, N_CHECKED_PIXELS])
        return rng.choice(self.n_px**2, N_CHECKED_PIXELS, replace=False)

    # -- set-up ---------------------------------------------------------
    def setup(self, tr, workdir: Path):
        """Build the texture and pass it through a spintex file."""
        with tr.run("setup"):
            lat = tr.call("texture.build", build_lattice, "square", LATTICE_A,
                          self.n_cells, self.n_cells)
            tex = tr.call("texture.build", apply_pattern, lat, self.pattern,
                          direction=self.direction, spin_mag=SPIN_MAG, g=SAMPLE_G)
            path = workdir / "texture.spintex"
            tr.call("texture.io", save_texture, tex, path)
            return tr.call("texture.io", load_texture, path)

    def params(self, **extra):
        return {"workload": self.name, "seed": self.seed, **extra}

    def job(self, tex, tr, workdir: Path) -> dict:
        raise NotImplementedError

    def check(self, out: dict, workdir: Path) -> list:
        raise NotImplementedError


class ContactMap(Workload):
    """Dense pixel x site field sums at contact height, both channels."""

    name = "contact-map"
    n_cells = 24
    pattern = "AFM-Neel"
    step = 0.5
    n_px = 139
    height = 4.0

    def __init__(self, seed):
        super().__init__(seed)
        self.direction = _tilted(self.rng, 30.0)

    def job(self, tex, tr, workdir):
        x_range, y_range = self.grid_ranges()
        cfg = ScanConfig(height=self.height, x_range=x_range, y_range=y_range,
                         step=self.step, mode="both")
        rmap = tr.call("scan.map", scan_constant_height, cfg, tex, workers=1)
        params = self.params(mode="both", height_angstrom=self.height)
        csv, pgm = workdir / "map.csv", workdir / "map.pgm"
        tr.call("fileio.write", fileio.write_map_csv, csv, rmap, params)
        tr.call("fileio.write", fileio.write_pgm, pgm, rmap.signal("transition"),
                params)
        return {"rmap": rmap, "files": [csv, pgm]}

    def check(self, out, workdir):
        problems = []
        table = _read_table(workdir / "map.csv")
        tips = self.tips(self.height)
        if table.shape != (tips.shape[0], 4):
            return [f"map.csv has shape {table.shape}, want ({tips.shape[0]}, 4)"]
        if not np.allclose(table[:, :2], tips[:, :2], rtol=0, atol=1e-7):
            problems.append("map.csv coordinates are off the requested grid")
        idx = self.checked_pixels()
        pos, spins, _, _ = self.sites()
        f_minus, f_plus = ref.scan_resonances(tips[idx], pos, spins, SAMPLE_G, "both")
        for label, got, want in (("f_minus", table[idx, 2], f_minus),
                                 ("f_plus", table[idx, 3], f_plus)):
            rel = np.abs(got - want) / np.abs(want)
            if not np.all(rel <= RTOL_9_DIGITS):
                problems.append(f"{label} differs from the reference by up to "
                                f"{rel.max():.3g} (relative) at checked pixels")
        problems += self._check_pgm(workdir / "map.pgm", table[:, 3], idx)
        return problems

    def _check_pgm(self, path, f_plus, idx):
        with open(path, encoding="utf-8") as fh:
            tokens = [t for line in fh if not line.startswith("#")
                      for t in line.split()]
        if tokens[:4] != ["P2", str(self.n_px), str(self.n_px), "65535"]:
            return [f"map.pgm header {tokens[:4]} is not a {self.n_px}-square P2"]
        gray = np.array(tokens[4:], dtype=int).reshape(self.n_px, self.n_px)[::-1]
        lo, hi = f_plus.min(), f_plus.max()
        want = np.round((f_plus[idx] - lo) / (hi - lo) * 65535)
        if np.max(np.abs(gray.ravel()[idx] - want)) > 1:
            return ["map.pgm gray levels do not follow f_plus"]
        return []


class IsoScan(Workload):
    """Per-pixel bisection on height: the field kernel re-evaluated on a
    shrinking active set."""

    name = "isoscan"
    n_cells = 8
    pattern = "FM"
    step = 0.25
    n_px = 85
    f_source = 120.0
    z_min, z_max = 2.0, 12.0
    # The scan stops within 1 MHz; heights printed to 9 digits move the
    # reference frequency by well under 20 kHz.
    tol_ghz = 1e-3 + 2e-5

    def __init__(self, seed):
        super().__init__(seed)
        self.direction = _tilted(self.rng, 30.0)

    def job(self, tex, tr, workdir):
        x_range, y_range = self.grid_ranges()
        cfg = ScanConfig(x_range=x_range, y_range=y_range, step=self.step,
                         mode="exchange")
        iso = tr.call("scan.iso", scan_iso_frequency, cfg, tex, self.f_source,
                      self.z_min, self.z_max)
        csv = workdir / "iso.csv"
        tr.call("fileio.write", fileio.write_iso_csv, csv, iso,
                self.params(mode="exchange"))
        return {"iso": iso, "files": [csv]}

    def check(self, out, workdir):
        table = _read_table(workdir / "iso.csv")
        tips = self.tips(0.0)
        if table.shape != (tips.shape[0], 3):
            return [f"iso.csv has shape {table.shape}, want ({tips.shape[0]}, 3)"]
        problems = []
        z = table[:, 2]
        if not np.all(np.isfinite(z)):
            problems.append(f"{np.count_nonzero(~np.isfinite(z))} pixels not bracketed")
        elif not np.all((z >= self.z_min) & (z <= self.z_max)):
            problems.append("iso heights outside [z_min, z_max]")
        else:
            idx = self.checked_pixels()
            at = np.column_stack([table[idx, :2], z[idx]])
            pos, spins, _, _ = self.sites()
            _, f_plus = ref.scan_resonances(at, pos, spins, SAMPLE_G, "exchange")
            miss = np.abs(f_plus - self.f_source)
            if miss.max() > self.tol_ghz:
                problems.append(f"f_plus at the returned height misses the source "
                                f"by up to {miss.max() * 1e3:.4g} MHz")
        return problems


class Readout(Workload):
    """Readout emulation and inversion from the measured map."""

    name = "readout"
    calibration = "interp"
    n_cells = 5
    pattern = "FM"
    step = 0.75
    n_px = 17
    height = 4.0
    lam = 1e-6
    # spinscan's readout defaults, spelled out because the checks use them.
    baseline, contrast, fwhm, f_step = 1e5, 0.1, 0.1, 0.02
    # Fit errors are bounded from the shot-noise standard error of a dip
    # centre: none beyond 6 sigma (p ~ 1e-6 over 578 fits) and an rms
    # within 1.5 sigma.
    max_sigmas = 6.0
    rms_sigmas = 1.5
    m_z_tol = 1e-3

    def job(self, tex, tr, workdir):
        x_range, y_range = self.grid_ranges()
        cfg = ScanConfig(height=self.height, x_range=x_range, y_range=y_range,
                         step=self.step, mode="exchange")
        rmap = tr.call("scan.map", scan_constant_height, cfg, tex, workers=1)
        fitted, error = tr.call("spectrum.measure", measure_map, rmap,
                                SpectrumConfig(seed=self.seed, f_step=self.f_step,
                                               linewidth_fwhm=self.fwhm,
                                               contrast=self.contrast,
                                               baseline_counts=self.baseline))
        csv = workdir / "measured.csv"
        tr.call("fileio.write", fileio.write_map_csv, csv, fitted,
                self.params(mode="exchange", measured=True))
        measured = tr.call("fileio.read", fileio.load_map_csv, csv)
        span = measured.step
        fwd = tr.call(
            "reconstruct.forward", build_forward, tex,
            (measured.x0, measured.x0 + span * (measured.nx - 1)),
            (measured.y0, measured.y0 + span * (measured.ny - 1)),
            span, measured.height, "exchange")
        y = (measured.f_plus - D_ZFS_UEV / CONSTANTS.h_planck).ravel()
        result = tr.call("reconstruct.solve", solve_tikhonov, fwd, y, self.lam)
        moments = workdir / "moments.txt"
        cells = np.rint(tex.positions[:, :2] / LATTICE_A).astype(int)
        tr.call("fileio.write", fileio.write_moments, moments, tex.positions,
                cells, result.m_z, {"lam": self.lam}, self.params())
        return {"rmap": rmap, "error": error, "kernels": [fwd.a.shape],
                "results": [result], "files": [csv, moments]}

    def check(self, out, workdir):
        problems = []
        n_failed = int(np.count_nonzero(~np.isfinite(out["error"])))
        if n_failed:
            problems.append(f"{n_failed} pixels failed their fit")
        table = _read_table(workdir / "measured.csv")
        tips = self.tips(self.height)
        pos, spins, ii, jj = self.sites()
        f_minus, f_plus = ref.scan_resonances(tips, pos, spins, SAMPLE_G, "exchange")
        err = np.concatenate([table[:, 2] - f_minus, table[:, 3] - f_plus])
        sigma = ref.shot_noise_center_sigma(self.baseline, self.contrast, self.fwhm,
                                            self.f_step)
        if not np.all(np.isfinite(err)):
            problems.append("measured map holds non-finite values")
        else:
            worst, rms = np.max(np.abs(err)), np.sqrt(np.mean(err**2))
            if worst > self.max_sigmas * sigma or rms > self.rms_sigmas * sigma:
                problems.append(f"fit errors max {worst * 1e3:.3g} MHz, rms "
                                f"{rms * 1e3:.3g} MHz exceed the shot-noise bounds "
                                f"({sigma * 1e3:.3g} MHz per centre)")
        moments = _read_moments(workdir / "moments.txt")
        m_z = np.array([moments.get((i, j), np.nan) for i, j in zip(ii, jj)])
        if not np.all(np.abs(m_z - SPIN_MAG) <= self.m_z_tol):
            problems.append(f"reconstructed m_z off 0.5 by up to "
                            f"{np.nanmax(np.abs(m_z - SPIN_MAG)):.3g}")
        return problems


class Invert(Workload):
    """Tikhonov solves and L-curves in the well-posed and ill-posed regimes
    of acceptance criterion 8."""

    name = "invert"
    n_cells = 14
    pattern = "AFM-Neel"
    step = 0.5
    n_px = 79
    lam = 1e-6
    regimes = (
        ("exchange", 4.0, np.logspace(-2, 5, 8)),
        ("dipolar", 100.0, np.logspace(-12, -4, 9)),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.direction = (0.0, 0.0, float(self.rng.choice([-1.0, 1.0])))

    def job(self, tex, tr, workdir):
        x_range, y_range = self.grid_ranges()
        m_true = tex.spin_mag * tex.spin_dirs[:, 2]
        cells = np.rint(tex.positions[:, :2] / LATTICE_A).astype(int)
        out = {"kernels": [], "results": [], "lcurves": [], "files": []}
        for mode, height, lambdas in self.regimes:
            fwd = tr.call("reconstruct.forward", build_forward, tex, x_range,
                          y_range, self.step, height, mode)
            y = fwd.a @ m_true
            result = tr.call("reconstruct.solve", solve_tikhonov, fwd, y, self.lam)
            rows = tr.call("reconstruct.lcurve", lcurve, fwd, y, lambdas)
            path = workdir / f"moments-{mode}.txt"
            tr.call("fileio.write", fileio.write_moments, path, tex.positions,
                    cells, result.m_z, {"cond": result.report.cond},
                    self.params(mode=mode, height_angstrom=height))
            out["kernels"].append(fwd.a.shape)
            out["results"].append(result)
            out["lcurves"].append(rows)
            out["files"].append(path)
        return out

    def check(self, out, workdir):
        problems = []
        pos, spins, ii, jj = self.sites()
        moments = _read_moments(workdir / "moments-exchange.txt")
        m_z = np.array([moments.get((i, j), 0.0) for i, j in zip(ii, jj)])
        n_ok = int(np.sum(np.sign(m_z) == np.sign(spins[:, 2])))
        if n_ok != pos.shape[0]:
            problems.append(f"Neel signs recovered {n_ok}/{pos.shape[0]} at 4 A")

        ex, dip = out["results"]
        if not dip.report.cond > 1e3 * ex.report.cond:
            problems.append(f"program cond ratio {dip.report.cond / ex.report.cond:.3g}"
                            " is not above 1e3")
        kernels = [ref.axial_kernel(self.tips(h), pos, mode)
                   for mode, h, _ in self.regimes]
        sv_ex, sv_dip = (np.linalg.svd(k, compute_uv=False) for k in kernels)
        for (mode, _, _), result, sv in zip(self.regimes, out["results"], (sv_ex, sv_dip)):
            rel = abs(result.report.sigma_max / sv[0] - 1.0)
            if not rel <= 1e-8:
                problems.append(f"{mode} kernel sigma_max is off the reference by "
                                f"{rel:.3g} (relative)")
        if not sv_dip[0] * sv_ex[-1] > 1e3 * sv_ex[0] * sv_dip[-1]:
            problems.append("reference cond ratio is not above 1e3")
        v = dip.report.near_null_vector
        witness = np.linalg.norm(kernels[1] @ v) / sv_dip[0]
        if not witness < 1e-3:
            problems.append(f"near-null witness {witness:.3g} is not below 1e-3")

        for (mode, _, lambdas), rows in zip(self.regimes, out["lcurves"]):
            lam, residual, norm = np.array(rows).T
            if not np.array_equal(lam, lambdas):
                problems.append(f"{mode} L-curve lambdas {lam} differ from the grid")
            # Slack of 1e-9 relative covers the solver's stopping tolerance.
            if np.any(np.diff(residual) < -1e-9 * residual[1:]):
                problems.append(f"{mode} L-curve residual falls as lambda grows")
            if np.any(np.diff(norm) > 1e-9 * norm[:-1]):
                problems.append(f"{mode} L-curve solution norm rises as lambda grows")
        return problems


WORKLOADS = {w.name: w for w in (ContactMap, IsoScan, Readout, Invert)}
