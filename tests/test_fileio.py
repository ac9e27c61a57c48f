"""Artifact file formats: map CSV round trip, PGM rendering, reports."""

from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from spinscan.fileio import (
    MapParseError,
    TextureParseError,
    _rows,
    load_config,
    load_map_csv,
    load_texture,
    write_map_csv,
    write_pgm,
    write_spectrum_csv,
    write_sweep_csv,
)
from spinscan.scan import _MAX_LATERAL, Grid, ResonanceMap, SweepCurve


def _toy_map():
    ny, nx = 3, 4
    f_plus = np.arange(ny * nx, dtype=float).reshape(ny, nx) + 100.0
    return ResonanceMap(
        x0=0.0, y0=1.0, step=0.5, nx=nx, ny=ny, height=4.0, mode="exchange",
        f_minus=f_plus - 7.0, f_plus=f_plus,
    )


def test_map_csv_round_trip(tmp_path):
    rmap = _toy_map()
    path = tmp_path / "m.csv"
    write_map_csv(path, rmap, {"seed": 0})
    back = load_map_csv(path)
    assert (back.nx, back.ny) == (rmap.nx, rmap.ny)
    assert back.step == pytest.approx(rmap.step)
    assert back.height == pytest.approx(rmap.height)
    assert back.mode == rmap.mode
    assert np.allclose(back.f_plus, rmap.f_plus, rtol=1e-9)
    assert np.allclose(back.f_minus, rmap.f_minus, rtol=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-_MAX_LATERAL / 2, max_value=_MAX_LATERAL / 2),
    st.floats(min_value=-_MAX_LATERAL / 2, max_value=_MAX_LATERAL / 2),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_written_maps_load_on_their_grid(tmp_path_factory, x0, y0, step, nx, ny):
    # The rows' x, y pass the grid check after 9-digit rounding, whatever
    # the origin and step.
    f_plus = np.arange(nx * ny, dtype=float).reshape(ny, nx) + 100.0
    rmap = ResonanceMap(x0=x0, y0=y0, step=step, nx=nx, ny=ny, height=4.0,
                        mode="both", f_minus=f_plus - 7.0, f_plus=f_plus)
    path = tmp_path_factory.mktemp("grid") / "m.csv"
    write_map_csv(path, rmap, {})
    back = load_map_csv(path)
    assert (back.nx, back.ny) == (nx, ny)
    assert np.array_equal(back.f_plus, f_plus)


def test_map_rows_off_their_pixels_are_refused(tmp_path):
    # A 7 x 9 map whose data rows were re-sorted x-major: same rows, same
    # header, each f+ now at another pixel's x, y.
    f_plus = np.arange(63, dtype=float).reshape(9, 7) + 100.0
    rmap = ResonanceMap(x0=-1.5, y0=2.0, step=0.75, nx=7, ny=9, height=4.0,
                        mode="exchange", f_minus=f_plus - 7.0, f_plus=f_plus)
    path = tmp_path / "m.csv"
    write_map_csv(path, rmap, {})
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith(("#", "x_"))]
    rows = sorted(lines[len(head):], key=lambda ln: tuple(map(float, ln.split(",")[:2])))
    path.write_text("\n".join(head + rows) + "\n")
    with pytest.raises(MapParseError, match=(
            rf"m.csv:{len(head) + 2}: row at \(-1.5, 2.75\) A is not pixel \(1, 0\)"
            r" of the 7 x 9 grid, at \(-0.75, 2\) A")):
        load_map_csv(path)


@pytest.mark.parametrize("name, text, load, error, message", [
    ("m.csv", "x_angstrom,y_angstrom,f_minus_ghz,f_plus_ghz\n0,0,3\n", load_map_csv,
     MapParseError, "m.csv:2: map row needs 4 fields"),
    ("t.spintex", "spintex 1\n0 0 0 0 1\n", load_texture, TextureParseError,
     "t.spintex:2: site line needs 6 fields"),
])
def test_both_readers_refuse_a_short_row_at_its_line(tmp_path, name, text, load, error,
                                                     message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(error, match=message):
        load(path)


SPINTEX_HEADER = ("spintex 1\nlattice square\na_angstrom 3\nnx 2\nny 1\n"
                  "spin_magnitude 0.5\ng_factor 2\n")
MAP_HEAD = ("# map_x0_angstrom = 0\n# map_y0_angstrom = 0\n# map_step_angstrom = 1\n"
            "# map_nx = 4\n# map_ny = 2\n# map_height_angstrom = 4\n# map_mode = exchange\n"
            "x_angstrom,y_angstrom,f_minus_ghz,f_plus_ghz\n")


@pytest.mark.parametrize("name, text, load, error, parts", [
    ("t.spintex", SPINTEX_HEADER.replace("a_angstrom 3", "a_angstrom 3 4") + "0 0 0 0 0 1\n",
     load_texture, TextureParseError, ["t.spintex:3: ", "a_angstrom"]),
    ("t.spintex", SPINTEX_HEADER.replace("a_angstrom 3", "a_angstrom abc") + "0 0 0 0 0 1\n",
     load_texture, TextureParseError, ["t.spintex:3: ", "a_angstrom", "'abc'"]),
    ("t.spintex", "# a comment\n\n", load_texture, TextureParseError,
     ["t.spintex:1: missing 'spintex 1' header"]),
    ("t.spintex", SPINTEX_HEADER + "1 2 0 0 0 1\n1 2 0 0 0 -1\n", load_texture,
     TextureParseError, ["t.spintex: sites 0 and 1 are 0 A apart"]),
    ("m.csv", MAP_HEAD, load_map_csv, MapParseError, ["m.csv: no data rows"]),
    ("m.csv", MAP_HEAD + "".join(f"{x},0,1,2\n" for x in range(4)) + "0,1,1,2\n",
     load_map_csv, MapParseError, ["m.csv: 5 rows do not fill a 4 x 2 grid"]),
], ids=["spintex-two-values", "spintex-unparseable-value", "spintex-no-magic",
        "spintex-duplicate-sites", "map-no-rows", "map-short-grid"])
def test_reader_refusals_name_their_cause(tmp_path, name, text, load, error, parts):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(error) as excinfo:
        load(path)
    assert all(part in str(excinfo.value) for part in parts), str(excinfo.value)


MAP_HEADER_KEYS = ("map_x0_angstrom", "map_y0_angstrom", "map_step_angstrom", "map_nx",
                   "map_ny", "map_height_angstrom", "map_mode")


@pytest.mark.parametrize("key", MAP_HEADER_KEYS)
def test_map_without_a_grid_header_line_is_refused(tmp_path, key):
    path = tmp_path / "m.csv"
    write_map_csv(path, _toy_map(), {})
    lines = path.read_text().splitlines()
    path.write_text("\n".join(ln for ln in lines if not ln.startswith(f"# {key} =")) + "\n")
    with pytest.raises(MapParseError, match=f"m.csv: missing header line '{key}'"):
        load_map_csv(path)


@pytest.mark.parametrize("key, value", [
    *[(key, "abc") for key in MAP_HEADER_KEYS],
    ("map_x0_angstrom", "nan"), ("map_height_angstrom", "inf"), ("map_step_angstrom", "0"),
    ("map_step_angstrom", "-0.5"), ("map_nx", "0"), ("map_ny", "2.5"), ("map_mode", "unknown"),
])
def test_map_with_a_malformed_grid_header_line_is_refused(tmp_path, key, value):
    path = tmp_path / "m.csv"
    write_map_csv(path, _toy_map(), {})
    lines = [f"# {key} = {value}" if ln.startswith(f"# {key} =") else ln
             for ln in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    line = lines.index(f"# {key} = {value}") + 1
    with pytest.raises(MapParseError, match=f"m.csv:{line}: malformed header {key} = '{value}'"):
        load_map_csv(path)


def test_map_csv_x_varies_fastest(tmp_path):
    path = tmp_path / "m.csv"
    write_map_csv(path, _toy_map(), {})
    data = [
        ln.split(",") for ln in path.read_text().splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("x_angstrom")
    ]
    xs = [float(r[0]) for r in data[:4]]
    ys = [float(r[1]) for r in data[:4]]
    assert xs == [0.0, 0.5, 1.0, 1.5]
    assert ys == [1.0, 1.0, 1.0, 1.0]


def test_map_csv_has_no_timestamps(tmp_path):
    # Outputs must be byte-reproducible: no dates, times, or hostnames.
    path = tmp_path / "m.csv"
    write_map_csv(path, _toy_map(), {"seed": 1})
    text = path.read_text().lower()
    for token in ("date", "time", "20[0-9][0-9]-"):
        assert "date" not in text and "hostname" not in text


def test_grid_rows_match_per_value_format(tmp_path):
    # A CSV body is one %-format of the whole file; its bytes must be those
    # of formatting each value on its own, edge values included.  The sweep
    # and spectrum writers format their rows the same way.
    rng = np.random.default_rng(5)
    edge = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
            2.2250738585072014e-308, 1.8e308, -1.8e308, 1.0 / 3.0, 123456789.5]
    values = np.concatenate(
        [edge, rng.standard_normal(52) * 10.0 ** rng.integers(-300, 300, 52)]
    )

    def per_value(*columns):
        return [",".join(f"{v:.9g}" for v in row) for row in zip(*columns)]

    grid = Grid(-0.1, 2.0 / 3.0, 0.3, values.size, 1)
    columns = (grid.tips(0.0)[:, 0], grid.tips(0.0)[:, 1], values, values[::-1])
    assert _rows(values, values[::-1], grid=grid) == "\n".join(per_value(
        *(c.tolist() for c in columns)))

    curve = SweepCurve(values, values[::-1], -values, values * 0.5, np.roll(values, 7),
                       crossover_r=None)
    spec = SimpleNamespace(frequencies=values, counts=values[::-1])
    for write, obj, columns in (
        (write_sweep_csv, curve, (curve.r, curve.j_ex, curve.e_dd, curve.b_stray,
                                  curve.f_res)),
        (write_spectrum_csv, spec, (spec.frequencies, spec.counts)),
    ):
        path = tmp_path / "rows.csv"
        write(path, obj, {})
        rows = path.read_text().splitlines()[2:]  # after the echo and column names
        assert rows == per_value(*columns), write.__name__


_ORIGINS = st.one_of(st.sampled_from([-1e6, 1e6, 0.0, -0.0]), st.floats(-1e6, 1e6))


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(_ORIGINS, _ORIGINS),
    st.one_of(st.sampled_from([1e-3, 7.5]), st.floats(1e-3, 7.5)),
    st.tuples(st.integers(1, 30), st.integers(1, 30)),
    st.integers(1, 2),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example((-1e6, 1e6), 1e-3, (1, 1), 1, True, 0)
@example((1e6, -1e6), 7.5, (1, 17), 2, False, 1)
@example((-2.5, 1e6), 0.3, (17, 1), 1, True, 2)
def test_grid_rows_match_per_pixel_coordinates(origin, step, size, n_columns, nan, seed):
    # Formatting x and y once per axis gives the bytes of formatting each
    # pixel's coordinates from Grid.tips: 1x1 and 1xn grids, far origins,
    # and a NaN column, as isoscan writes for pixels out of range.
    grid = Grid(*origin, step, *size)
    rng = np.random.default_rng(seed)
    columns = [rng.standard_normal(size[::-1]) * 10.0 ** rng.integers(-5, 5)
               for _ in range(n_columns)]
    if nan:
        columns[0][rng.random(size[::-1]) < 0.5] = np.nan
    tips = grid.tips(0.0)
    assert _rows(*columns, grid=grid) == _rows(tips[:, 0], tips[:, 1], *columns)


def test_pgm_north_up(tmp_path):
    # Row y-max must be emitted first: put the brightest pixel at the
    # top-left in map coordinates (min x, max y).
    values = np.zeros((3, 4))
    values[2, 0] = 1.0  # highest y row, first column
    path = tmp_path / "m.pgm"
    write_pgm(path, values, {})
    tokens = " ".join(
        ln for ln in path.read_text().splitlines() if not ln.startswith("#")
    ).split()
    assert tokens[0] == "P2"
    nx, ny, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    assert (nx, ny, maxval) == (4, 3, 65535)
    pixels = np.array(tokens[4:], dtype=int).reshape(ny, nx)
    assert pixels[0, 0] == 65535  # north-up: max-y row first
    assert pixels[2, 0] == 0


def test_pgm_rows_match_per_value_format(tmp_path):
    # The PGM body is one %-format of the whole image; its bytes must be
    # those of str on each gray level, north-up.  Levels 0 and 65535 pin
    # the normalization, so each value is its own gray level.
    rng = np.random.default_rng(7)
    gray = rng.integers(0, 65536, (5, 7))
    gray.flat[[0, 1]] = 0, 65535
    path = tmp_path / "m.pgm"
    write_pgm(path, gray.astype(float), {})
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][3:]
    assert rows == [" ".join(str(v) for v in row) for row in gray[::-1].tolist()]


def test_pgm_constant_field(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(path, np.full((2, 2), 5.0), {})
    tokens = " ".join(
        ln for ln in path.read_text().splitlines() if not ln.startswith("#")
    ).split()
    assert all(int(t) == 0 for t in tokens[4:])


SCHEMA = {"global": {"seed"}, "scan": {"height", "mode"}}


def test_load_config_sections(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "[global]\nseed = 7\n\n[scan]\nheight = 5.5\nmode = dipolar\n"
    )
    cfg = load_config(p, SCHEMA)
    assert cfg["global"]["seed"] == "7"
    assert cfg["scan"]["height"] == "5.5"


def test_load_config_rejects_unknown(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[scan]\naltitude = 4\n")
    with pytest.raises(ValueError, match="altitude"):
        load_config(p, SCHEMA)
    p2 = tmp_path / "bad2.cfg"
    p2.write_text("[orbit]\nheight = 4\n")
    with pytest.raises(ValueError, match="orbit"):
        load_config(p2, SCHEMA)
