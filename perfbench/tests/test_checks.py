"""The workloads' output checks pass on the program and catch a fault."""

import numpy as np
import pytest

from spans import Tracer
from workloads import ContactMap, Readout


def run_job(wl, tmp_path):
    tex = wl.setup(Tracer(), tmp_path)
    return wl.job(tex, Tracer(), tmp_path)


@pytest.mark.parametrize("seed", [101, 102, 103, 104, 105, 106])
def test_readout_check_holds_across_noise_seeds(seed, tmp_path):
    wl = Readout(seed)
    assert wl.check(run_job(wl, tmp_path), tmp_path) == []


def test_contact_map_check_catches_a_value_off_in_the_eighth_digit(tmp_path):
    wl = ContactMap(5)
    out = run_job(wl, tmp_path)
    assert wl.check(out, tmp_path) == []

    csv = tmp_path / "map.csv"
    lines = csv.read_text().splitlines()
    first_row = next(k for k, line in enumerate(lines) if line[0].isdigit())
    row = first_row + int(wl.checked_pixels()[0])
    x, y, f_minus, f_plus = lines[row].split(",")
    lines[row] = f"{x},{y},{f_minus},{float(f_plus) * (1 + 1e-7):.9g}"
    csv.write_text("\n".join(lines) + "\n")
    problems = wl.check(out, tmp_path)
    assert any(p.startswith("f_plus differs") for p in problems), problems
