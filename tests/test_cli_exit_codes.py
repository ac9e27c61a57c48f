"""The CLI exit-code contract under arbitrary numeric flags (in-process).

Every run of `cli.main` must return, or exit, with 0 success, 2 usage,
3 input file or 4 numerical failure; no other exception may escape.  A
run prints at most one line to stderr and raises no numpy
RuntimeWarning.  The model's validity-range UserWarning (J below 2 A)
is part of the output and stays allowed.  Values are passed as
`--flag=value`, so a negative or `-inf` value reaches the program's own
checks instead of stopping in argparse.
"""

import math

from hypothesis import given, settings, strategies as st
import pytest

import numpy as np

from conftest import run_main as run
from spinscan import cli, scan

CONTRACT = {0, 2, 3, 4}

SPECIAL = [0.0, -1.0, 1e-6, 1e300, -1e300, math.inf, -math.inf, math.nan]


def values(lo, hi):
    return st.one_of(st.floats(min_value=lo, max_value=hi), st.sampled_from(SPECIAL))


@pytest.fixture(scope="module")
def texture(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit") / "t.spintex"
    argv = ["texture", "--lattice", "square", "--a", "3", "--nx", "2", "--ny", "2",
            "--pattern", "afm-neel", "--out", str(path)]
    assert cli.main(argv) == 0
    return path


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["scan", "spectrum", "reconstruct"]),
    step=values(0.3, 3.0),
    height=values(1.0, 20.0),
    lam=values(0.0, 1e3),
    baseline=values(1.0, 1e6),
)
def test_numeric_flags_keep_the_exit_contract(texture, command, step, height,
                                              lam, baseline):
    out = texture.with_name(f"{command}.out")
    argv = [command, "--texture", texture, "--mode", "both", "--out", out]
    if command == "spectrum":  # its height is the --tip z; it has no grid
        argv += [f"--tip=1.5,1.5,{height}", f"--baseline={baseline}"]
    else:
        argv += [f"--step={step}", f"--height={height}"]
    if command == "reconstruct":
        argv += ["--synthetic", f"--lam={lam}"]
    code, stderr, caught = run(argv)
    assert code in CONTRACT
    assert len(stderr) <= 1, stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["scan", "--xmin=1e300", "--xmax=1e300"],
    ["spectrum", "--tip=1e300,0,4"],
    ["spectrum"],                                  # --texture without --tip
    ["reconstruct", "--synthetic", "--lam", "-1e300"],  # argparse's own error
])
def test_usage_errors_are_one_line(texture, argv):
    out = texture.with_name("usage.out")
    code, stderr, caught = run([*argv, "--texture", texture, "--out", out])
    assert code == 2
    assert len(stderr) == 1, stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_spectrum_reads_its_texture_before_its_tip(texture):
    # The library refuses the tip, so a missing texture is reported first.
    missing = texture.with_name("missing.spintex")
    code, stderr, _ = run(["spectrum", "--texture", missing, "--tip=1e300,0,4",
                           "--out", texture.with_name("missing.out")])
    assert code == 3
    assert len(stderr) == 1 and str(missing) in stderr[0], stderr


def test_far_texture_site_is_an_input_error(texture):
    # A site past the engine's lateral bound is refused where the file
    # is read, before its squared distances can overflow.
    far = texture.with_name("far.spintex")
    lines = texture.read_text(encoding="utf-8").splitlines()
    k = next(i for i, line in enumerate(lines) if line[:1].isdigit())
    lines[k] = " ".join(["1e200", *lines[k].split()[1:]])
    far.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, stderr, caught = run(["scan", "--texture", far, "--xmin=0", "--xmax=3",
                                "--ymin=0", "--ymax=3", "--out", far.with_suffix(".csv")])
    assert code == 3
    assert len(stderr) == 1 and f"{far}:{k + 1}:" in stderr[0], stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


TEXTURE = object()  # stands for the texture fixture's path in an argv
MAP = object()  # stands for the map fixture's path in an argv


@pytest.fixture(scope="module")
def scan_map(texture):
    path = texture.with_name("scan-map.csv")
    assert run(["scan", "--texture", texture, "--step", "1.5", "--out", path])[0] == 0
    return path


@pytest.mark.parametrize("argv, config, message", [
    # Sizes far past memory, refused before anything is allocated.
    (["texture", "--lattice", "square", "--a", "3", "--nx", "1000000",
      "--ny", "1000000"], None, "site budget"),
    (["sweep", "--rmin", "1", "--rmax", "2", "--points", "1000000000000"], None,
     "sweep points"),
    (["spectrum", "--resonances", "3.4", "--fstart", "3", "--fstop", "4",
      "--fstep", "1e-12"], None, "point budget"),
    (["scan", "--texture", TEXTURE, "--measure"], "[spectrum]\nf_step = 1e-12\n",
     "point budget"),
    # Non-finite or unreachable values.
    (["isoscan", "--texture", TEXTURE, "--fsource", "nan"], None, "f_source"),
    (["isoscan", "--texture", TEXTURE, "--fsource", "inf"], None, "f_source"),
    (["sweep", "--rmin", "1", "--rmax", "inf", "--points", "5"], None, "r_max < inf"),
    # Sweeps closer than the tip-site minimum, lattices past the lateral bound.
    (["sweep", "--rmin", "1e-300", "--rmax", "1", "--points", "5"], None, "0.1 <= r_min"),
    (["sweep", "--rmin", "1", "--rmax", "1e300", "--points", "5"], None, "at most 10000 A"),
    (["texture", "--lattice", "square", "--a", "1e300", "--nx", "2", "--ny", "2"], None,
     "lateral bound"),
    (["scan", "--texture", TEXTURE, "--measure"], "[spectrum]\nlinewidth_fwhm = nan\n",
     "must be finite"),
    (["spectrum", "--resonances", "3.4", "--linewidth", "nan"], None, "must be finite"),
    (["spectrum", "--resonances", "3.4,nan"], None, "must be finite"),
    # Before the window is built from them or warns about them.
    (["spectrum", "--resonances", "nan"], None, "--resonances must be finite"),
    (["spectrum", "--resonances", "nan", "--fstart", "2", "--fstop", "4"], None,
     "--resonances must be finite"),
    (["spectrum", "--resonances", "3.4", "--contrast", "0.6"], None,
     "negative mean counts"),
    # Sample spins that are not finite and non-negative, and g that is not finite.
    *[(["sweep", "--rmin", "2", "--rmax", "20", "--points", "3", f"--spin-mag={v}"],
       None, "spin magnitude must be finite and >= 0") for v in ("nan", "inf", "-1")],
    (["texture", "--lattice", "square", "--a", "3", "--nx", "2", "--ny", "2",
      "--spin-mag", "nan"], None, "spin magnitude must be finite and >= 0"),
    (["texture", "--lattice", "square", "--a", "3", "--nx", "2", "--ny", "2",
      "--sample-g", "nan"], None, "sample g must be finite"),
    # Sample spins and g whose field sums would overflow.
    (["texture", "--lattice", "square", "--a", "3", "--nx", "2", "--ny", "2",
      "--sample-g", "1e308"], None, "sample g must be finite and within +/-1000"),
    (["texture", "--lattice", "square", "--a", "3", "--nx", "2", "--ny", "2",
      "--spin-mag", "1e308"], None, "spin magnitude must be finite and >= 0, at most 1000"),
    (["sweep", "--rmin", "0.1", "--rmax", "10", "--points", "5", "--spin-mag=1e308"], None,
     "spin magnitude must be finite and >= 0, at most 1000"),
    # A linewidth whose square underflows, and a direction that is not finite.
    (["spectrum", "--resonances", "3.3,3.6", "--linewidth=1e-200"], None,
     "linewidth_fwhm must be at least"),
    (["texture", "--lattice", "square", "--a", "3", "--nx", "2", "--ny", "2",
      "--dir=1,0,inf"], None, "--dir must be a finite nonzero vector"),
    # Probe settings past their bounds, a step whose range overflows on
    # division, and a spectrum with no counts to fit.
    (["isoscan", "--texture", TEXTURE, "--fsource", "120", "--zmin", "2", "--zmax", "12",
      "--probe-g=inf"], None, "probe g must be finite"),
    (["isoscan", "--texture", TEXTURE, "--fsource", "120", "--zmin", "2", "--zmax", "12",
      "--d-zfs=inf"], None, "zero-field splitting must be positive and at most"),
    (["reconstruct", "--texture", TEXTURE, "--synthetic", "--mode", "dipolar",
      "--probe-g=inf"], None, "probe g must be finite"),
    (["scan", "--texture", TEXTURE, "--step=5e-324"], None, "pixel budget"),
    (["spectrum", "--resonances", "3.3,3.6", "--baseline", "1e-6"], None, "no counts"),
    # External fields whose Zeeman energy g mu_B B would overflow.
    (["scan", "--texture", TEXTURE, "--bext=1,0,1e308"], None, "|b_ext| must be at most"),
    (["isoscan", "--texture", TEXTURE, "--fsource", "120", "--zmin", "2", "--zmax", "12",
      "--bext=1,0,1e308"], None, "|b_ext| must be at most"),
    (["spectrum", "--texture", TEXTURE, "--tip=1,1,4", "--bext=1,0,1e308"], None,
     "|b_ext| must be at most"),
    (["scan", "--texture", TEXTURE], "[scan]\nb_ext = 1e300,1e300,0\n",
     "|b_ext| must be at most"),
    # Worker counts outside [1, _MAX_WORKERS], refused before any thread starts.
    *[(["scan", "--texture", TEXTURE, f"--workers={w}"], None,
       f"workers must be within [1, {scan._MAX_WORKERS}]")
      for w in (0, -1, scan._MAX_WORKERS + 1)],
    (["scan", "--texture", TEXTURE], "[scan]\nworkers = 0\n",
     f"workers must be within [1, {scan._MAX_WORKERS}]"),
    # Flags that the command would otherwise ignore, or that conflict.
    (["reconstruct", "--texture", TEXTURE, "--map", MAP, "--synthetic"], None,
     "--map and --synthetic are mutually exclusive"),
    (["reconstruct", "--texture", TEXTURE, "--map", MAP], "[reconstruct]\nsynthetic = yes\n",
     "--map and --synthetic are mutually exclusive"),
    (["scan", "--texture", TEXTURE, "--error-out", "e.csv", "--measured-out", "mm.csv"],
     None, "--measured-out and --error-out need --measure"),
    (["scan", "--texture", TEXTURE, "--error-out", "e.csv"], None,
     "--measured-out and --error-out need --measure"),
    (["reconstruct", "--texture", TEXTURE], None, "either --map or --synthetic is required"),
    (["spectrum", "--resonances", "3.4", "--texture", TEXTURE, "--tip=1,1,4"], None,
     "--resonances and --texture are mutually exclusive"),
    (["spectrum", "--resonances", "1,2,3"], None,
     "--resonances takes one or two frequencies"),
    # Values that their argparse type cannot read.
    (["texture", "--lattice", "square", "--a", "3", "--nx", "2", "--ny", "2",
      "--dir=1,0,x"], None, "non-numeric vector '1,0,x'"),
    (["spectrum", "--resonances", "3.4,x"], None, "non-numeric list '3.4,x'"),
], ids=["texture-sites", "sweep-points", "spectrum-points", "measure-points",
        "isoscan-nan", "isoscan-inf", "sweep-inf", "sweep-rmin", "sweep-rmax", "texture-far",
        "measure-nan-linewidth",
        "spectrum-nan-linewidth", "spectrum-nan-resonance", "spectrum-nan-only",
        "spectrum-nan-in-window", "spectrum-negative-mean",
        "sweep-nan-spin-mag", "sweep-inf-spin-mag", "sweep-negative-spin-mag",
        "texture-nan-spin-mag", "texture-nan-sample-g", "texture-huge-sample-g",
        "texture-huge-spin-mag", "sweep-huge-spin-mag", "spectrum-tiny-linewidth",
        "texture-inf-dir", "isoscan-inf-probe-g", "isoscan-inf-d-zfs",
        "reconstruct-inf-probe-g", "scan-subnormal-step", "spectrum-zero-counts",
        "scan-huge-bext", "isoscan-huge-bext", "spectrum-huge-bext", "config-huge-bext-norm",
        "scan-zero-workers", "scan-negative-workers", "scan-workers-past-cap",
        "config-zero-workers", "reconstruct-map-and-synthetic",
        "reconstruct-map-and-config-synthetic", "scan-outputs-without-measure",
        "scan-error-out-without-measure", "reconstruct-no-observations",
        "spectrum-resonances-and-texture", "spectrum-three-resonances",
        "texture-non-numeric-dir", "spectrum-non-numeric-resonances"])
def test_refused_inputs_are_one_line_usage_errors(tmp_path, texture, scan_map, argv, config,
                                                  message):
    # Each id writes under its own directory, so an output one id leaves
    # behind fails that id alone.
    out = tmp_path / "refused.out"
    argv = [{TEXTURE: texture, MAP: scan_map}.get(a, a) for a in argv] + ["--out", out]
    if config is not None:
        cfg = tmp_path / "refused.cfg"
        cfg.write_text(config, encoding="utf-8")
        argv += ["--config", cfg]
    code, stderr, caught = run(argv)
    assert code == 2
    assert len(stderr) == 1 and message in stderr[0], stderr
    assert not caught
    assert not out.exists()


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("SVD did not converge"),
                                   ArithmeticError("non-finite kernel"),
                                   FloatingPointError("overflow in multiply")],
                         ids=["linalg", "arithmetic", "floating-point"])
def test_numerical_failures_exit_4_in_one_line(monkeypatch, texture, error):
    # Any command's numerical failure is mapped to exit 4 by cli.main.
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_sweep", fail)
    code, stderr, _ = run(["sweep", "--rmin", "2", "--rmax", "10", "--points", "5",
                           "--out", texture.with_name("numerical.csv")])
    assert code == 4
    assert stderr == [f"numerical error: {error}"]


@pytest.mark.parametrize("flag", ["--d-zfs=1e300", "--fsource=1e308"],
                         ids=["isoscan-huge-d-zfs", "isoscan-huge-fsource"])
def test_isoscan_far_from_the_source_is_out_of_range_without_overflow(texture, flag):
    # f_plus - f_source is about 1e300 GHz at both bracket ends: their
    # signs, not their product, decide the bracket, so every pixel is
    # out of range with no numpy warning.
    out = texture.with_name("far-iso.csv")
    code, stderr, caught = run(["isoscan", "--texture", texture, "--fsource", "120",
                                "--zmin", "2", "--zmax", "12", flag, "--out", out])
    assert code == 0 and not stderr, stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = [ln.split(",") for ln in out.read_text(encoding="utf-8").splitlines()
            if ln[:1].isdigit() or ln[:1] == "-"]
    assert rows and all(row[2] == "nan" for row in rows)


def test_map_rows_off_their_pixels_are_an_input_error(texture):
    # A map whose data rows were re-sorted x-major is refused, not inverted.
    path = texture.with_name("sorted.csv")
    assert run(["scan", "--texture", texture, "--step", "1.5", "--out", path])[0] == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    k = next(i for i, line in enumerate(lines) if line[:1].isdigit() or line[:1] == "-")
    rows = sorted(lines[k:], key=lambda ln: tuple(map(float, ln.split(",")[:2])))
    path.write_text("\n".join(lines[:k] + rows) + "\n", encoding="utf-8")
    code, stderr, _ = run(["reconstruct", "--texture", texture, "--map", path,
                           "--out", path.with_suffix(".txt")])
    assert code == 3
    assert len(stderr) == 1 and f"{path}:{k + 2}: row at" in stderr[0], stderr


def test_map_without_its_grid_header_is_an_input_error(texture):
    # Without the '# map_*' lines the grid is not guessed from the rows.
    path = texture.with_name("bare.csv")
    assert run(["scan", "--texture", texture, "--step", "1.5", "--out", path])[0] == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(ln for ln in lines if not ln.startswith("#")) + "\n",
                    encoding="utf-8")
    code, stderr, _ = run(["reconstruct", "--texture", texture, "--map", path,
                           "--out", path.with_suffix(".txt")])
    assert code == 3
    assert len(stderr) == 1 and "map_x0_angstrom" in stderr[0], stderr


@pytest.mark.parametrize("suffix, line, edited, key", [
    (".spintex", "a_angstrom 3", "a_angstrom 3 4", "a_angstrom"),
    (".spintex", "a_angstrom 3", "a_angstrom -3", "a_angstrom"),
    (".spintex", "nx 2", "nx -7", "nx"),
    (".spintex", "ny 2", "ny 1.5", "ny"),
    (".spintex", "g_factor 2", "g_factor nan", "g_factor"),
    (".spintex", "lattice square", "lattice hexagonal", "lattice"),
    (".csv", "# map_step_angstrom = 1.5", "# map_step_angstrom = -1.5", "map_step_angstrom"),
], ids=["two-values", "negative-a", "negative-nx", "fractional-ny", "nan-g", "unknown-lattice",
        "negative-map-step"])
def test_bad_header_lines_are_input_errors_at_their_line(texture, suffix, line, edited, key):
    # A header value that its reader cannot use is refused by key and line.
    path = texture.with_name(f"header-{key}{suffix}")
    if suffix == ".csv":
        assert run(["scan", "--texture", texture, "--step", "1.5", "--out", path])[0] == 0
        argv = ["reconstruct", "--texture", texture, "--map", path]
    else:
        path.write_text(texture.read_text(encoding="utf-8"), encoding="utf-8")
        argv = ["scan", "--texture", path, "--xmin=0", "--xmax=3", "--ymin=0", "--ymax=3"]
    lines = path.read_text(encoding="utf-8").splitlines()
    k = lines.index(line)
    lines[k] = edited
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, stderr, caught = run([*argv, "--out", path.with_suffix(".out")])
    assert code == 3
    assert len(stderr) == 1 and f"{path}:{k + 1}: " in stderr[0] and key in stderr[0], stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("edited, argv", [
    ("g_factor 1e308", ["scan", "--mode", "dipolar", "--step", "1"]),
    ("g_factor 1e200", ["reconstruct", "--synthetic", "--mode", "dipolar", "--step", "1"]),
    ("spin_magnitude 1e308", ["scan", "--mode", "dipolar", "--step", "1"]),
    ("spin_magnitude 1e308", ["isoscan", "--fsource", "120", "--zmin", "2", "--zmax", "12",
                              "--step", "1"]),
], ids=["scan-huge-g", "reconstruct-huge-g", "scan-huge-spin-mag", "isoscan-huge-spin-mag"])
def test_spintex_spins_past_their_bounds_are_input_errors(texture, edited, argv):
    # A file edited past the texture command's own bounds is refused at its
    # header line, before any field sum could overflow.
    path = texture.with_name("huge.spintex")
    lines = texture.read_text(encoding="utf-8").splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.split()[0] == edited.split()[0])
    lines[k] = edited
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, stderr, caught = run([argv[0], "--texture", path, *argv[1:],
                                "--out", path.with_suffix(".out")])
    assert code == 3
    assert len(stderr) == 1 and f"{path}:{k + 1}: malformed header" in stderr[0], stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("suffix, line, edited, message", [
    (".spintex", "a_angstrom 3", ["a_angstrom 3", "a_angstrom 5"],
     "repeated header a_angstrom, first at line {k}"),
    (".csv", "# map_step_angstrom = 1.5",
     ["# map_step_angstrom = 1.5", "# map_step_angstrom = 3"],
     "repeated header map_step_angstrom, first at line {k}"),
    (".csv", "# map_y0_angstrom = 0", ["# map_y0_angstrom = 1e308"],
     "malformed header map_y0_angstrom"),
    (".csv", "# map_height_angstrom = 4", ["# map_height_angstrom = 1e308"],
     "malformed header map_height_angstrom"),
    (".csv", "# map_step_angstrom = 1.5", ["# map_step_angstrom = 1e308"],
     "malformed header map_step_angstrom"),
    (".spintex", "0 0 0 0 0 1", ["0 0 0 0 0 1e308"], "spin direction has |dir| = 1e+308"),
    (".spintex", "0 0 0 0 0 1", ["2e6 0 0 0 0 1"],
     "site outside |x|, |y| <= 1e+06 A and |z| <= 10000 A"),
], ids=["repeated-spintex-key", "repeated-map-key", "far-map-origin", "far-map-height",
        "far-map-step", "huge-spin-component", "far-site-bounds"])
def test_reader_holes_are_input_errors_at_their_line(texture, suffix, line, edited, message):
    # Each edit is refused by the reader, at the last edited line, with no
    # numpy warning on the way.
    path = texture.with_name(f"hole{suffix}")
    if suffix == ".csv":
        assert run(["scan", "--texture", texture, "--step", "1.5", "--out", path])[0] == 0
        argv = ["reconstruct", "--texture", texture, "--map", path]
    else:
        path.write_text(texture.read_text(encoding="utf-8"), encoding="utf-8")
        argv = ["scan", "--texture", path, "--xmin=0", "--xmax=3", "--ymin=0", "--ymax=3"]
    lines = path.read_text(encoding="utf-8").splitlines()
    k = lines.index(line)
    lines[k:k + 1] = edited
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, stderr, caught = run([*argv, "--out", path.with_suffix(".out")])
    assert code == 3
    where = f"{path}:{k + len(edited)}: {message.format(k=k + 1)}"
    assert len(stderr) == 1 and where in stderr[0], stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
