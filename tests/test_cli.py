"""End-to-end command-line tests (subprocess level).

Each call spawns `python -m spinscan ...` so argument parsing, exit
codes, file outputs, and determinism are exercised exactly as a user
sees them.  Exit code contract: 0 success, 2 usage, 3 input file,
4 numerical failure.
"""

import numpy as np
import pytest

from conftest import run_cli


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    r = run_cli(
        "texture", "--lattice", "square", "--a", 3, "--nx", 5, "--ny", 5,
        "--pattern", "fm", "--dir", "0,0,1", "--out", "t.spintex", cwd=d,
    )
    assert r.returncode == 0, r.stderr
    return d


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        k, v = [s.strip() for s in line.split("=", 1)]
        out[k] = v
    return out


# ------------------------------------------------------------------ texture


def test_texture_creates_25_sites(workdir):
    body = [
        ln for ln in (workdir / "t.spintex").read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    site_lines = [ln for ln in body if len(ln.split()) == 6]
    assert len(site_lines) == 25


def test_texture_missing_a_is_usage_error(workdir):
    r = run_cli("texture", "--lattice", "square", "--nx", 2, "--ny", 2,
                "--pattern", "fm", "--out", "x.spintex", cwd=workdir)
    assert r.returncode == 2


def test_texture_afm_neel_checkerboard(workdir):
    r = run_cli("texture", "--lattice", "square", "--a", 3, "--nx", 2, "--ny", 2,
                "--pattern", "afm-neel", "--out", "afm.spintex", cwd=workdir)
    assert r.returncode == 0, r.stderr
    rows = [
        ln.split() for ln in (workdir / "afm.spintex").read_text().splitlines()
        if ln and not ln.startswith("#") and len(ln.split()) == 6
    ]
    sz = [float(row[5]) for row in rows]
    assert sorted(sz) == [-1.0, -1.0, 1.0, 1.0]
    assert sz[0] == 1.0  # site at the origin points up


# -------------------------------------------------------------------- sweep


def test_sweep_crossover_and_rows(workdir):
    r = run_cli("sweep", "--rmin", 2, "--rmax", 100, "--points", 200, "--log",
                "--out", "sweep.csv", cwd=workdir)
    assert r.returncode == 0, r.stderr
    assert "crossover_r_angstrom" in r.stdout
    r_star = float(r.stdout.split("crossover_r_angstrom =")[1].split()[0])
    assert 5.0 < r_star < 7.0
    rows = [
        ln for ln in (workdir / "sweep.csv").read_text().splitlines()
        if ln and not ln.startswith("#")
    ]
    assert rows[0] == "r_angstrom,J_uev,Edd_uev,Bstray_T,f_ghz"
    assert len(rows) == 201  # header + 200 points


def test_sweep_rejects_single_point(workdir):
    r = run_cli("sweep", "--rmin", 2, "--rmax", 10, "--points", 1,
                "--out", "x.csv", cwd=workdir)
    assert r.returncode == 2


# --------------------------------------------------------------------- scan


def test_scan_outputs_and_determinism(workdir):
    args = ["scan", "--texture", "t.spintex", "--height", 4, "--step", 0.75,
            "--mode", "exchange"]
    r1 = run_cli(*args, "--out", "m1.csv", "--pgm", "m1.pgm", cwd=workdir)
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(*args, "--out", "m2.csv", "--pgm", "m2.pgm", cwd=workdir)
    assert (workdir / "m1.csv").read_bytes() == (workdir / "m2.csv").read_bytes()
    assert (workdir / "m1.pgm").read_bytes() == (workdir / "m2.pgm").read_bytes()
    r4 = run_cli(*args, "--workers", 4, "--out", "m4.csv", cwd=workdir)
    assert r4.returncode == 0
    assert (workdir / "m1.csv").read_bytes() == (workdir / "m4.csv").read_bytes()


def test_scan_csv_layout(workdir):
    lines = (workdir / "m1.csv").read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any("height_angstrom = 4" in ln for ln in meta)
    assert data[0] == "x_angstrom,y_angstrom,f_minus_ghz,f_plus_ghz"
    assert len(data) == 1 + 17 * 17
    first = data[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0
    assert float(first[3]) >= float(first[2]) > 0.0


def test_scan_pgm_is_valid_p2(workdir):
    lines = (workdir / "m1.pgm").read_text().split("\n")
    assert lines[0] == "P2"
    tokens = " ".join(ln for ln in lines[1:] if not ln.startswith("#")).split()
    nx, ny, maxval = int(tokens[0]), int(tokens[1]), int(tokens[2])
    assert (nx, ny, maxval) == (17, 17, 65535)
    pixels = np.array(tokens[3:], dtype=int)
    assert pixels.size == nx * ny
    assert pixels.min() == 0 and pixels.max() == 65535


def test_scan_missing_texture_is_input_error(workdir):
    r = run_cli("scan", "--texture", "nope.spintex", "--out", "x.csv", cwd=workdir)
    assert r.returncode == 3


def test_scan_malformed_texture_is_input_error(workdir):
    (workdir / "bad.spintex").write_text("garbage\n")
    r = run_cli("scan", "--texture", "bad.spintex", "--out", "x.csv", cwd=workdir)
    assert r.returncode == 3
    assert "bad.spintex:1" in r.stderr


def test_scan_non_finite_texture_is_input_error(workdir):
    good = (workdir / "t.spintex").read_text().splitlines()
    first_site = next(
        i for i, ln in enumerate(good) if len(ln.split("#")[0].split()) == 6
    )
    good[first_site] = "nan 0 0 0 0 1"
    (workdir / "nan.spintex").write_text("\n".join(good) + "\n")
    r = run_cli("scan", "--texture", "nan.spintex", "--out", "x.csv", cwd=workdir)
    assert r.returncode == 3
    assert f"nan.spintex:{first_site + 1}: non-finite value in site line" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("command", [["scan"], ["isoscan", "--fsource", "100"]])
def test_scan_over_pixel_budget_is_usage_error(workdir, command):
    r = run_cli(*command, "--texture", "t.spintex", "--step", "1e-6",
                "--out", "x.csv", cwd=workdir)
    assert r.returncode == 2
    assert "pixel budget" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_scan_invalid_height_is_usage_error(workdir):
    r = run_cli("scan", "--texture", "t.spintex", "--height", -4,
                "--out", "x.csv", cwd=workdir)
    assert r.returncode == 2


def test_scan_measure_pipeline(workdir):
    r = run_cli("scan", "--texture", "t.spintex", "--height", 4, "--step", 1.5,
                "--mode", "exchange", "--measure", "--seed", 3,
                "--out", "mm.csv", "--error-out", "mmerr.csv", cwd=workdir)
    assert r.returncode == 0, r.stderr
    assert "median error" in r.stdout
    assert (workdir / "mm.csv.measured.csv").exists()
    errs = [
        float(ln.split(",")[2])
        for ln in (workdir / "mmerr.csv").read_text().splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("x_angstrom")
    ]
    assert np.median(errs) < 5e-3


def test_scan_measure_reports_a_map_where_every_fit_failed(workdir):
    # At 30 A all 49 windows merge into one dip of summed contrast 1.2, so
    # no fit succeeds; the summary names the count and prints no NaN.
    r = run_cli("texture", "--lattice", "square", "--a", 3, "--nx", 3, "--ny", 3,
                "--out", "t3.spintex", cwd=workdir)
    assert r.returncode == 0, r.stderr
    (workdir / "c.cfg").write_text("[spectrum]\ncontrast = 0.6\n")
    r = run_cli("scan", "--config", "c.cfg", "--texture", "t3.spintex", "--height", 30,
                "--step", 1, "--measure", "--out", "far.csv", cwd=workdir)
    assert r.returncode == 0, r.stderr
    summary = r.stdout.splitlines()[-1]
    assert summary == "measure: all 49 pixels failed their fits"
    assert "nan" not in r.stdout


def test_scan_measure_headers_echo_readout_settings(workdir):
    headers = []
    for width in (0.1, 0.3):
        (workdir / "r.cfg").write_text(f"[spectrum]\nlinewidth_fwhm = {width}\n")
        r = run_cli("scan", "--config", "r.cfg", "--texture", "t.spintex", "--height", 4,
                    "--step", 3, "--measure", "--out", "m.csv", "--error-out", "e.csv",
                    cwd=workdir)
        assert r.returncode == 0, r.stderr
        headers.append([
            [ln for ln in (workdir / name).read_text().splitlines() if ln.startswith("#")]
            for name in ("m.csv.measured.csv", "e.csv")
        ])
    for name, first, second in zip(("measured", "error"), *headers):
        assert first != second, name
        assert "# linewidth_fwhm_ghz = 0.3" in second, name
# ------------------------------------------------------------------ isoscan


def test_isoscan_self_consistency(workdir):
    # Drive at the f_plus of the map center pixel: recovered height = 4 A.
    r = run_cli("scan", "--texture", "t.spintex", "--height", 4, "--step", 3,
                "--mode", "exchange", "--out", "ref.csv", cwd=workdir)
    assert r.returncode == 0
    rows = [
        ln.split(",") for ln in (workdir / "ref.csv").read_text().splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("x_angstrom")
    ]
    f_center = [float(c[3]) for c in rows if float(c[0]) == 6.0 and float(c[1]) == 6.0]
    r = run_cli("isoscan", "--texture", "t.spintex", "--fsource", f_center[0],
                "--zmin", 2, "--zmax", 10, "--step", 3, "--out", "iso.csv",
                cwd=workdir)
    assert r.returncode == 0, r.stderr
    iso_rows = {
        (float(c[0]), float(c[1])): c[2]
        for c in (
            ln.split(",") for ln in (workdir / "iso.csv").read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("x_angstrom")
        )
    }
    assert float(iso_rows[(6.0, 6.0)]) == pytest.approx(4.0, abs=1e-3)


def test_isoscan_reruns_are_byte_identical(workdir):
    # Coarse, tight and fallback searches give each pixel the same bits on
    # every run.
    args = ["isoscan", "--texture", "t.spintex", "--fsource", 120, "--zmin", 2,
            "--zmax", 12, "--step", 0.5]
    for out in ("iso_a.csv", "iso_b.csv"):
        r = run_cli(*args, "--out", out, cwd=workdir)
        assert r.returncode == 0, r.stderr
    a, b = ((workdir / out).read_bytes() for out in ("iso_a.csv", "iso_b.csv"))
    assert a == b
    assert b"nan" not in a


def test_isoscan_malformed_frequency_is_usage_error(workdir):
    r = run_cli("isoscan", "--texture", "t.spintex", "--fsource", "fast",
                "--out", "x.csv", cwd=workdir)
    assert r.returncode == 2


def test_isoscan_reports_out_of_range(workdir):
    r = run_cli("isoscan", "--texture", "t.spintex", "--fsource", 1e9,
                "--zmin", 2, "--zmax", 10, "--step", 3, "--out", "isonan.csv",
                cwd=workdir)
    assert r.returncode == 0
    assert "out of range" in r.stdout
    body = [
        ln for ln in (workdir / "isonan.csv").read_text().splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("x_angstrom")
    ]
    assert all(ln.split(",")[2] == "nan" for ln in body)


# ----------------------------------------------------------------- spectrum


def test_spectrum_seed_reruns_identical(workdir):
    args = ["spectrum", "--resonances", "3.482", "--seed", 42, "--npeaks", 1]
    r1 = run_cli(*args, "--out", "s1.csv", "--report", "rep1.txt", cwd=workdir)
    assert r1.returncode == 0, r1.stderr
    run_cli(*args, "--out", "s2.csv", cwd=workdir)
    assert (workdir / "s1.csv").read_bytes() == (workdir / "s2.csv").read_bytes()
    rep = read_report(workdir / "rep1.txt")
    assert abs(float(rep["peak1_center_ghz"]) - 3.482) < 5e-3


def test_spectrum_noiseless_recovery(workdir):
    r = run_cli("spectrum", "--resonances", "3.482", "--noiseless",
                "--npeaks", 1, "--out", "sn.csv", "--report", "repn.txt",
                cwd=workdir)
    assert r.returncode == 0, r.stderr
    rep = read_report(workdir / "repn.txt")
    assert abs(float(rep["peak1_center_ghz"]) - 3.482) < 1e-6


def test_spectrum_from_texture_and_tip(workdir):
    r = run_cli("spectrum", "--texture", "t.spintex", "--tip", "6,6,4",
                "--noiseless", "--out", "st.csv", "--report", "rept.txt",
                cwd=workdir)
    assert r.returncode == 0, r.stderr
    rep = read_report(workdir / "rept.txt")
    # Exchange-dominated pixel: both branches far above the zero-field line.
    assert float(rep["peak1_center_ghz"]) > 100.0


def test_spectrum_from_texture_echoes_its_probe(workdir):
    r = run_cli("spectrum", "--texture", "t.spintex", "--tip", "6,6,4", "--mode", "both",
                "--bext", "0,0,0.01", "--out", "sp.csv", "--report", "rsp.txt",
                cwd=workdir)
    assert r.returncode == 0, r.stderr
    for name in ("sp.csv", "rsp.txt"):
        lines = (workdir / name).read_text().splitlines()
        for echo in ("# texture = t.spintex", "# tip_angstrom = 6,6,4", "# mode = both",
                     "# b_ext_tesla = 0,0,0.01"):
            assert echo in lines, (name, echo)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_spectrum_resolves_a_close_pair(workdir, seed):
    # 0.05 GHz apart is 2.5 sweep steps: the fit starts from the two
    # synthesized branches, not from a search for separate minima.
    r = run_cli("spectrum", "--resonances", "3.40,3.45", "--seed", seed,
                "--out", f"pair{seed}.csv", "--report", f"pair{seed}.txt", cwd=workdir)
    assert r.returncode == 0, r.stderr
    rep = read_report(workdir / f"pair{seed}.txt")
    assert rep["converged"] == "true"
    centers = [float(rep["peak1_center_ghz"]), float(rep["peak2_center_ghz"])]
    assert np.allclose(centers, [3.40, 3.45], rtol=0.0, atol=0.010)


@pytest.mark.parametrize("baseline", ["1e30", "nan", "inf"])
def test_spectrum_baseline_out_of_range_is_usage_error(workdir, baseline):
    r = run_cli("spectrum", "--resonances", "3.482", "--baseline", baseline,
                "--out", "sb.csv", cwd=workdir)
    assert r.returncode == 2
    assert "Poisson limit" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_spectrum_requires_source(workdir):
    r = run_cli("spectrum", "--out", "x.csv", cwd=workdir)
    assert r.returncode == 2


# -------------------------------------------------------------- reconstruct


def test_reconstruct_neel_signs(workdir):
    r = run_cli("texture", "--lattice", "square", "--a", 3, "--nx", 5, "--ny", 5,
                "--pattern", "afm-neel", "--out", "neel.spintex", cwd=workdir)
    assert r.returncode == 0
    r = run_cli("reconstruct", "--texture", "neel.spintex", "--synthetic",
                "--mode", "exchange", "--height", 4, "--step", 0.75,
                "--lam", "1e-6", "--out", "mom.txt", cwd=workdir)
    assert r.returncode == 0, r.stderr
    rows = [
        ln.split() for ln in (workdir / "mom.txt").read_text().splitlines()
        if ln and not ln.startswith("#") and len(ln.split()) == 3
    ]
    assert len(rows) == 25
    correct = sum(
        1 for ix, iy, mz in ((int(a), int(b), float(c)) for a, b, c in rows)
        if np.sign(mz) == (-1.0) ** (ix + iy)
    )
    assert correct == 25
    assert "cond" in r.stdout


@pytest.mark.parametrize("a, cells", [
    ("3", [(k % 3, k // 3) for k in range(9)]),
    ("0.001", [(k, 0) for k in range(9)]),  # labels up to 6000, outside 3 x 3
    ("6", [(k, 0) for k in range(9)]),      # two sites per label
])
def test_reconstruct_labels_cells_only_when_the_header_names_them(workdir, a, cells):
    r = run_cli("texture", "--lattice", "square", "--a", 3, "--nx", 3, "--ny", 3,
                "--out", "cells.spintex", cwd=workdir)
    assert r.returncode == 0, r.stderr
    path = workdir / f"cells-{a}.spintex"
    path.write_text((workdir / "cells.spintex").read_text().replace(
        "\na_angstrom 3\n", f"\na_angstrom {a}\n"))
    r = run_cli("reconstruct", "--texture", path.name, "--synthetic", "--step", 1.5,
                "--out", f"cells-{a}.txt", cwd=workdir)
    assert r.returncode == 0, r.stderr
    rows = [ln.split() for ln in (workdir / f"cells-{a}.txt").read_text().splitlines()
            if not ln.startswith("#")]
    assert [(int(ix), int(iy)) for ix, iy, _ in rows] == cells


def test_reconstruct_echoes_its_grid_as_scan_does(workdir):
    grid = ["--xmin", "-1", "--xmax", "10", "--ymin", "0", "--ymax", "9", "--step", "0.5"]
    headers = []
    for command in (["scan"], ["reconstruct", "--synthetic"]):
        r = run_cli(*command, "--texture", "t.spintex", *grid, "--out", "grid.out",
                    cwd=workdir)
        assert r.returncode == 0, r.stderr
        headers.append({ln for ln in (workdir / "grid.out").read_text().splitlines()
                        if ln.startswith(("# x_", "# y_", "# step_"))})
    assert headers[0] == headers[1] == {
        "# x_min_angstrom = -1", "# x_max_angstrom = 10", "# y_min_angstrom = 0",
        "# y_max_angstrom = 9", "# step_angstrom = 0.5"}


def test_reconstruct_negative_lam_is_usage_error(workdir):
    r = run_cli("reconstruct", "--texture", "t.spintex", "--synthetic",
                "--lam", -1, "--out", "x.txt", cwd=workdir)
    assert r.returncode == 2


def test_reconstruct_over_pixel_budget_is_usage_error(workdir):
    r = run_cli("reconstruct", "--texture", "t.spintex", "--synthetic",
                "--step", "1e-6", "--out", "x.txt", cwd=workdir)
    assert r.returncode == 2
    assert "pixel budget" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_reconstruct_over_kernel_budget_is_usage_error(workdir):
    # 641 x 641 pixels fit the pixel budget; 25 sites make the kernel too big.
    r = run_cli("reconstruct", "--texture", "t.spintex", "--synthetic",
                "--step", "0.01875", "--out", "x.txt", cwd=workdir)
    assert r.returncode == 2
    assert "MiB budget" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_reconstruct_225_sites(workdir):
    r = run_cli("texture", "--lattice", "square", "--a", 3, "--nx", 15, "--ny", 15,
                "--pattern", "afm-neel", "--out", "neel15.spintex", cwd=workdir)
    assert r.returncode == 0, r.stderr
    r = run_cli("reconstruct", "--texture", "neel15.spintex", "--synthetic",
                "--mode", "exchange", "--height", 4, "--step", 1.0,
                "--lam", "1e-6", "--out", "mom15.txt", cwd=workdir)
    assert r.returncode == 0, r.stderr
    assert "(225 sites)" in r.stdout
    assert "iterations" not in r.stdout


def test_reconstruct_malformed_map_is_input_error(workdir):
    (workdir / "bad.csv").write_text(
        "x_angstrom,y_angstrom,f_minus_ghz,f_plus_ghz\n0,0,3.4,3.5\n0,0,abc,3\n"
    )
    r = run_cli("reconstruct", "--texture", "t.spintex", "--map", "bad.csv",
                "--out", "x.txt", cwd=workdir)
    assert r.returncode == 3
    assert "bad.csv:3: non-numeric map row" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_reconstruct_non_finite_map_is_input_error(workdir):
    (workdir / "nan.csv").write_text(
        "x_angstrom,y_angstrom,f_minus_ghz,f_plus_ghz\n0,0,3.4,3.5\n0,1,3.4,nan\n"
    )
    r = run_cli("reconstruct", "--texture", "t.spintex", "--map", "nan.csv",
                "--out", "x.txt", cwd=workdir)
    assert r.returncode == 3
    assert "nan.csv:3: non-finite value" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


def test_reconstruct_bad_lcurve_fails_before_any_output(workdir):
    r = run_cli("reconstruct", "--texture", "t.spintex", "--synthetic",
                "--lcurve", "nan,1", "--out", "lc_bad.txt", cwd=workdir)
    assert r.returncode == 2
    assert "--lcurve" in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1
    assert r.stdout == ""
    assert not (workdir / "lc_bad.txt").exists()


def test_reconstruct_lcurve_table(workdir):
    r = run_cli("reconstruct", "--texture", "t.spintex", "--synthetic",
                "--mode", "exchange", "--height", 4, "--step", 1.5,
                "--lam", "1e-6", "--lcurve", "1e-8,1e-4,1", "--out", "lc.txt",
                cwd=workdir)
    assert r.returncode == 0, r.stderr
    assert "lcurve" in r.stdout or "lam" in r.stdout


# ------------------------------------------------------------------- config


def test_config_file_and_flag_override(workdir):
    cfg = workdir / "run.cfg"
    cfg.write_text(
        "[global]\nseed = 5\n\n[scan]\nheight = 4.0\nstep = 3.0\nmode = exchange\n"
    )
    r = run_cli("scan", "--config", "run.cfg", "--texture", "t.spintex",
                "--out", "c1.csv", cwd=workdir)
    assert r.returncode == 0, r.stderr
    assert "# height_angstrom = 4" in (workdir / "c1.csv").read_text()
    r = run_cli("scan", "--config", "run.cfg", "--texture", "t.spintex",
                "--height", 6, "--out", "c2.csv", cwd=workdir)
    assert r.returncode == 0
    assert "# height_angstrom = 6" in (workdir / "c2.csv").read_text()


def test_config_unknown_key_rejected(workdir):
    bad = workdir / "bad.cfg"
    bad.write_text("[scan]\nheigth = 4.0\n")
    r = run_cli("scan", "--config", "bad.cfg", "--texture", "t.spintex",
                "--out", "x.csv", cwd=workdir)
    assert r.returncode == 2
    assert "heigth" in r.stderr


def test_unknown_subcommand_is_usage_error(workdir):
    r = run_cli("teleport", cwd=workdir)
    assert r.returncode == 2
