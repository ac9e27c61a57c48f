"""Shared fixtures, the CLI launcher and the acceptance-criteria summary hook."""

import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinscan import apply_pattern, build_lattice, cli

ACCEPTANCE_LINES: list = []

SRC = Path(__file__).resolve().parents[1] / "src"

# CLI tests run in temporary directories, where a relative entry such as
# PYTHONPATH=src no longer resolves: the child gets the absolute in-repo
# src/ first, with any existing entries kept after it.
CLI_ENV = dict(os.environ)
CLI_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
)


def run_cli(*args, cwd):
    """Run `python -m spinscan *args` in `cwd` and return the CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "spinscan", *(str(a) for a in args)],
        cwd=cwd,
        env=CLI_ENV,
        capture_output=True,
        text=True,
        timeout=240,
    )


def run_main(argv):
    """Exit code, stderr lines and warnings of one in-process CLI run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue().strip().splitlines(), caught


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo one verdict line per acceptance criterion after the run."""
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fm_5x5():
    """5x5 square lattice, a = 3 A, ferromagnetic +z, spin 1/2, g = 2."""
    lat = build_lattice("square", 3.0, 5, 5)
    return apply_pattern(lat, "FM", direction=(0.0, 0.0, 1.0), spin_mag=0.5, g=2.0)


@pytest.fixture(scope="session")
def neel_5x5():
    """5x5 square lattice, a = 3 A, checkerboard +/-z, spin 1/2, g = 2."""
    lat = build_lattice("square", 3.0, 5, 5)
    return apply_pattern(lat, "AFM-Neel", direction=(0.0, 0.0, 1.0), spin_mag=0.5, g=2.0)


@pytest.fixture(scope="session")
def single_site():
    """One spin-1/2 site at the origin pointing +z."""
    lat = build_lattice("square", 3.0, 1, 1)
    return apply_pattern(lat, "FM", direction=(0.0, 0.0, 1.0), spin_mag=0.5, g=2.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260815)
