"""How each CLI command gets its settings (in-process).

Each command declares only the flags it reads.  A setting takes its
flag, else its config key, else its default; a config value is cast by
its flag's own type, and a bad one exits 2 with one line naming its key.
A config file may set any key that some command declares.
"""

from pathlib import Path

import pytest

from conftest import run_main
from spinscan import cli


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("settings")
    code, stderr, _ = run_main(["texture", "--lattice", "square", "--a", "3",
                                "--nx", "2", "--ny", "2", "--out", d / "t.spintex"])
    assert code == 0, stderr
    return d


def header(path) -> dict:
    return dict(
        line[2:].split(" = ", 1) for line in path.read_text().splitlines()
        if line.startswith("# ") and " = " in line
    )


def config(workdir, name, text):
    path = workdir / name
    path.write_text(text)
    return path


REMOVED = [
    ("texture", "--seed=1"), ("texture", "--prefactor=rydberg"),
    ("texture", "--convention=transition"), ("texture", "--d-zfs=14.4"),
    ("texture", "--probe-g=2"),
    ("sweep", "--seed=1"), ("sweep", "--convention=transition"),
    ("sweep", "--d-zfs=14.4"), ("sweep", "--probe-g=5"),
    ("isoscan", "--height=4"), ("isoscan", "--seed=1"),
    ("isoscan", "--convention=transition"),
    ("spectrum", "--height=4"), ("spectrum", "--step=1"), ("spectrum", "--xmin=0"),
    ("spectrum", "--xmax=1"), ("spectrum", "--ymin=0"), ("spectrum", "--ymax=1"),
    ("spectrum", "--convention=transition"),
    ("reconstruct", "--bext=0,0,1"), ("reconstruct", "--seed=1"),
    ("reconstruct", "--convention=transition"),
]


@pytest.mark.parametrize("command, flag", REMOVED)
def test_removed_flag_is_a_one_line_usage_error(workdir, command, flag):
    texture = workdir / "t.spintex"
    argv = {
        "texture": ["--lattice", "square", "--a", 3, "--nx", 1, "--ny", 1],
        "sweep": ["--rmin", 2, "--rmax", 10, "--points", 5],
        "isoscan": ["--texture", texture, "--fsource", 100],
        "spectrum": ["--resonances", 3.5],
        "reconstruct": ["--texture", texture, "--synthetic"],
    }[command]
    code, stderr, _ = run_main([command, *argv, flag, "--out", workdir / "x.out"])
    assert code == 2
    assert stderr == [f"error: unrecognized arguments: {flag}"]
    assert not (workdir / "x.out").exists()


def test_a_key_another_command_declares_is_accepted(workdir):
    # One config file can serve every command: scan reads none of these
    # keys, so its output matches a run without the config.
    cfg = config(workdir, "shared.cfg", "[texture]\nlattice = square\n\n"
                 "[sweep]\npoints = 5\n\n[isoscan]\nf_source = 100\n\n"
                 "[reconstruct]\nlam = 1\n")
    argv = ["scan", "--texture", workdir / "t.spintex", "--step", 1.5]
    assert run_main([*argv, "--out", workdir / "plain.csv"])[0] == 0
    code, stderr, _ = run_main([*argv, "--config", cfg, "--out", workdir / "shared.csv"])
    assert code == 0, stderr
    assert (workdir / "shared.csv").read_text() == (workdir / "plain.csv").read_text()


@pytest.mark.parametrize("text, message", [
    ("[scan]\naltitude = 4\n",
     "unknown key 'altitude' in section [scan]; expected one of ['b_ext', 'height', "
     "'mode', 'step', 'workers', 'x_max', 'x_min', 'y_max', 'y_min']"),
    ("[orbit]\nheight = 4\n",
     "unknown config section [orbit]; expected one of ['global', 'isoscan', "
     "'reconstruct', 'scan', 'spectrum', 'sweep', 'texture']"),
])
def test_undeclared_key_or_section_is_one_line_naming_it(workdir, text, message):
    cfg = config(workdir, "unknown.cfg", text)
    code, stderr, _ = run_main(["scan", "--config", cfg, "--texture",
                                workdir / "t.spintex", "--out", workdir / "u.out"])
    assert code == 2
    assert stderr == [f"error: {cfg}: {message}"]
    assert not (workdir / "u.out").exists()


def test_readme_lists_every_flag_and_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("### Flags, config keys and defaults")
    table = readme[start : readme.index("\n## ", start)]
    rows = table.splitlines()
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    for parser in sub.choices.values():
        for action, key, _ in parser.get_default("settings"):
            flag, (section, name) = action.option_strings[0], key.split(".")
            assert f"`{flag}`" in table, flag
            assert any(f"[{section}] {name}`" in row
                       or (f"[{section}]" in row and f"`{name}`" in row)
                       for row in rows), key


@pytest.mark.parametrize("argv", [
    ["isoscan", "--fsource", 100, "--step", 3],
    ["spectrum", "--tip=1.5,1.5,4", "--noiseless"],
])
def test_a_height_the_command_does_not_read_cannot_fail_it(workdir, argv):
    cfg = config(workdir, "low.cfg", "[scan]\nheight = 0.5\n")
    code, stderr, _ = run_main([*argv, "--config", cfg, "--texture",
                                workdir / "t.spintex", "--out", workdir / "h.out"])
    assert code == 0, stderr
    assert "height_angstrom" not in header(workdir / "h.out")


def test_spectrum_window_flag_then_config_then_auto(workdir):
    out = workdir / "w.csv"
    base = ["spectrum", "--resonances", "3.482", "--noiseless", "--out", out]
    assert run_main(base)[0] == 0
    auto = header(out)
    assert float(auto["f_start_ghz"]) == pytest.approx(3.482 - 20 * 0.1)

    cfg = config(workdir, "window.cfg", "[spectrum]\nf_start = 3.2\nf_stop = 3.7\n")
    assert run_main([*base, "--config", cfg])[0] == 0
    rows = [line for line in out.read_text().splitlines() if line[:1].isdigit()]
    assert (header(out)["f_start_ghz"], header(out)["f_stop_ghz"]) == ("3.2", "3.7")
    assert rows[0].startswith("3.2,")

    assert run_main([*base, "--config", cfg, "--fstart", "3.0"])[0] == 0
    assert (header(out)["f_start_ghz"], header(out)["f_stop_ghz"]) == ("3", "3.7")


@pytest.mark.parametrize("command, section, key, value", [
    (["scan"], "scan", "height", "four"),
    (["scan"], "scan", "mode", "magic"),
    (["scan"], "scan", "b_ext", "1,2"),
    (["scan"], "global", "seed", "1.5"),
    (["scan", "--measure"], "spectrum", "noiseless", "maybe"),
    (["reconstruct", "--synthetic"], "reconstruct", "lam", "small"),
    (["spectrum", "--tip=1,1,4"], "spectrum", "f_start", "low"),
])
def test_bad_config_value_names_its_key(workdir, command, section, key, value):
    cfg = config(workdir, "bad.cfg", f"[{section}]\n{key} = {value}\n")
    code, stderr, _ = run_main([*command, "--config", cfg, "--texture",
                                workdir / "t.spintex", "--out", workdir / "b.out"])
    assert code == 2
    assert len(stderr) == 1 and f"config [{section}] {key}:" in stderr[0], stderr
    assert not (workdir / "b.out").exists()


def test_boolean_config_values_act_as_their_flags(workdir):
    # A store_true setting reads true/yes/on/1 and false/no/off/0 from config.
    out, flagged = workdir / "bool.csv", workdir / "bool-flag.csv"
    base = ["spectrum", "--resonances", "3.482"]
    cfg = config(workdir, "noiseless.cfg", "[spectrum]\nnoiseless = true\n")
    assert run_main([*base, "--config", cfg, "--out", out])[0] == 0
    assert run_main([*base, "--noiseless", "--out", flagged])[0] == 0
    assert header(out)["noiseless"] == "true"
    assert out.read_text() == flagged.read_text()

    sweep = ["sweep", "--rmin", 2, "--rmax", 10, "--points", 5, "--out", out]
    for text, log in (("no", "false"), ("Yes", "true"), ("off", "false"), ("1", "true")):
        cfg = config(workdir, "log.cfg", f"[sweep]\nlog = {text}\n")
        assert run_main([*sweep, "--config", cfg])[0] == 0
        assert header(out)["log"] == log
    rows = [line for line in out.read_text().splitlines() if line[:1].isdigit()]
    assert [row.split(",")[0] for row in rows[:2]] == ["2", "2.99069756"]


def test_missing_required_setting_names_flag_and_key(workdir):
    code, stderr, _ = run_main(["sweep", "--rmin", 2, "--rmax", 10,
                                "--out", workdir / "s.csv"])
    assert code == 2
    assert stderr == ["error: missing required --points (or [sweep] points in config)"]


def test_reconstruct_reads_scan_step_and_its_own_height(workdir):
    cfg = config(workdir, "rec.cfg", "[scan]\nstep = 1.5\n\n[reconstruct]\nheight = 5\n")
    out = workdir / "m.txt"
    argv = ["reconstruct", "--config", cfg, "--texture", workdir / "t.spintex",
            "--synthetic", "--out", out]
    assert run_main(argv)[0] == 0
    assert (header(out)["step_angstrom"], header(out)["height_angstrom"]) == ("1.5", "5")
    assert run_main([*argv, "--height", 6, "--step", 0.75])[0] == 0
    assert (header(out)["step_angstrom"], header(out)["height_angstrom"]) == ("0.75", "6")


def test_sweep_header_echoes_only_what_the_sweep_reads(workdir):
    out = workdir / "sweep.csv"
    code, stderr, _ = run_main(["sweep", "--rmin", 2, "--rmax", 10, "--points", 5,
                                "--out", out])
    assert code == 0, stderr
    echoed = header(out)
    assert echoed["exchange_prefactor"] == "rydberg"
    for absent in ("probe_g", "probe_d_uev", "seed", "resonance_convention"):
        assert absent not in echoed
