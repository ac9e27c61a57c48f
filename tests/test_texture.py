"""Lattice construction, spin patterns, and the spintex file format."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinscan import scan, texture
from spinscan import (
    SpinTexture,
    TextureParseError,
    apply_pattern,
    build_lattice,
    load_texture,
    save_texture,
)


# ------------------------------------------------------------------ lattice


def test_square_lattice_geometry():
    lat = build_lattice("square", 3.0, 5, 5)
    assert lat.positions.shape == (25, 3)
    assert np.allclose(lat.positions[:, 2], 0.0)
    # Sites sit on exact multiples of a; the (1, 2) cell is at (3, 6, 0).
    idx = [i for i, c in enumerate(lat.cell_index) if tuple(c) == (1, 2)]
    assert len(idx) == 1
    assert np.allclose(lat.positions[idx[0]], [3.0, 6.0, 0.0])


def test_triangular_lattice_coordination():
    # Interior sites of a triangular lattice have 6 neighbors at exactly a.
    a = 2.5
    lat = build_lattice("triangular", a, 5, 5)
    center = lat.positions[12]
    d = np.linalg.norm(lat.positions - center, axis=1)
    assert np.sum(np.abs(d - a) < 1e-9) == 6


def test_honeycomb_lattice_coordination():
    # Honeycomb: every interior site has 3 nearest neighbors at a/sqrt(3),
    # all on the opposite sublattice.
    a = 3.0
    lat = build_lattice("honeycomb", a, 4, 4)
    assert lat.positions.shape == (32, 3)
    nn = a / np.sqrt(3.0)
    # Pick a bulk site and count neighbors at the NN distance.
    center_idx = np.argmin(
        np.linalg.norm(lat.positions - lat.positions.mean(axis=0), axis=1)
    )
    d = np.linalg.norm(lat.positions - lat.positions[center_idx], axis=1)
    neighbors = np.where(np.abs(d - nn) < 1e-9)[0]
    assert len(neighbors) == 3
    assert all(
        lat.sublattice[j] != lat.sublattice[center_idx] for j in neighbors
    )


def test_lattice_rejects_bad_args():
    with pytest.raises(ValueError):
        build_lattice("kagome", 3.0, 2, 2)
    with pytest.raises(ValueError):
        build_lattice("square", -1.0, 2, 2)
    with pytest.raises(ValueError):
        build_lattice("square", 3.0, 0, 2)


@pytest.mark.parametrize("a", [np.nan, np.inf])
def test_lattice_constant_must_be_finite(a):
    with pytest.raises(ValueError, match="finite"):
        build_lattice("square", a, 2, 2)


@pytest.mark.parametrize("lattice, n, sites", [("square", 317, 100_489),
                                               ("honeycomb", 224, 100_352),
                                               ("square", 10**6, 10**12)])
def test_lattice_over_site_budget_is_refused(lattice, n, sites):
    # Refused before any array is allocated, even far past memory; a
    # lattice at the budget is built.
    with pytest.raises(ValueError, match=f"{sites} sites, over the {texture._MAX_SITES}"):
        build_lattice(lattice, 3.0, n, n)
    assert build_lattice("square", 3.0, 100, texture._MAX_SITES // 100).n_sites == (
        texture._MAX_SITES)


@pytest.mark.parametrize("lattice, a, n", [("square", 1e300, 2), ("square", 1e308, 3),
                                         ("square", 1e6 / 99, 101),
                                         ("triangular", 1e6 / 149, 101),
                                         ("honeycomb", 1e6 / 150, 101)])
def test_lattice_past_the_lateral_bound_is_refused(lattice, a, n):
    # Refused before the sites are built, and without overflow warnings
    # (RuntimeWarnings fail this suite), where the duplicate-site check
    # would square their coordinates.
    with pytest.raises(ValueError, match="lateral bound"):
        build_lattice(lattice, a, n, n)


@pytest.mark.parametrize("lattice, a", [("square", 1e6 / 100), ("triangular", 1e6 / 151),
                                        ("honeycomb", 1e6 / 151)])
def test_lattice_within_the_lateral_bound_is_built(lattice, a):
    # Up to the bound the texture loader enforces, so a saved lattice loads.
    sites = build_lattice(lattice, a, 101, 101).positions
    assert 0.99e6 < np.max(sites) <= scan._MAX_LATERAL


# ----------------------------------------------------------------- patterns


def test_fm_pattern_uniform():
    tex = apply_pattern(build_lattice("square", 3.0, 3, 3), "FM",
                        direction=(0.0, 0.0, 1.0), spin_mag=0.5, g=2.0)
    assert np.allclose(tex.spin_dirs, [[0.0, 0.0, 1.0]] * 9)
    assert tex.spin_mag == 0.5
    assert np.allclose(tex.spin_vectors, tex.spin_dirs * 0.5)


def test_afm_neel_checkerboard_2x2():
    # Checkerboard signs (+, -, -, +) in row-major site order, and the
    # net moment of any even-by-even Neel texture cancels.
    lat = build_lattice("square", 3.0, 2, 2)
    tex = apply_pattern(lat, "AFM-Neel", direction=(0.0, 0.0, 1.0),
                        spin_mag=0.5, g=2.0)
    signs = {tuple(c): sz for c, sz in zip(lat.cell_index, tex.spin_dirs[:, 2])}
    assert signs[(0, 0)] == 1.0
    assert signs[(1, 0)] == -1.0
    assert signs[(0, 1)] == -1.0
    assert signs[(1, 1)] == 1.0
    assert np.allclose(tex.spin_vectors.sum(axis=0), 0.0, atol=1e-12)


def test_afm_neel_honeycomb_by_sublattice():
    lat = build_lattice("honeycomb", 3.0, 2, 2)
    tex = apply_pattern(lat, "AFM-Neel", direction=(0.0, 0.0, 1.0),
                        spin_mag=0.5, g=2.0)
    sz = tex.spin_dirs[:, 2]
    for s, sub in zip(sz, lat.sublattice):
        assert s == (1.0 if sub == 0 else -1.0)


def test_afm_neel_rejects_triangular():
    # No two-coloring of a triangular lattice: pattern must be refused.
    lat = build_lattice("triangular", 3.0, 3, 3)
    with pytest.raises(ValueError):
        apply_pattern(lat, "AFM-Neel", direction=(0.0, 0.0, 1.0),
                      spin_mag=0.5, g=2.0)


def test_stripe_pattern():
    lat = build_lattice("square", 3.0, 3, 2)
    tex = apply_pattern(lat, "stripe", direction=(0.0, 0.0, 1.0),
                        spin_mag=1.0, g=2.0)
    for c, sz in zip(lat.cell_index, tex.spin_dirs[:, 2]):
        assert sz == (1.0 if c[0] % 2 == 0 else -1.0)


def test_pattern_rejects_non_unit_direction():
    lat = build_lattice("square", 3.0, 2, 2)
    with pytest.raises(ValueError):
        apply_pattern(lat, "FM", direction=(0.0, 0.0, 2.0), spin_mag=0.5, g=2.0)


def test_non_finite_directions_are_not_unit_vectors():
    # A NaN norm fails every comparison, so the checks accept only a
    # norm that is within the tolerance of 1.
    lat = build_lattice("square", 3.0, 2, 2)
    with pytest.raises(ValueError, match="unit vector"):
        apply_pattern(lat, "FM", direction=(np.nan, 0.0, 1.0), spin_mag=0.5, g=2.0)
    spins = np.array([[0.0, 0.0, 1.0]] * 3 + [[0.0, np.nan, 1.0]])
    with pytest.raises(ValueError, match="site 3 is not a unit vector"):
        SpinTexture(lat.positions, spins, 0.5, 2.0)


def test_pattern_rejects_unknown_name():
    lat = build_lattice("square", 3.0, 2, 2)
    with pytest.raises(ValueError):
        apply_pattern(lat, "spiral", direction=(0.0, 0.0, 1.0),
                      spin_mag=0.5, g=2.0)


def test_texture_rejects_coincident_sites():
    with pytest.raises(ValueError):
        SpinTexture(
            positions=np.zeros((2, 3)),
            spin_dirs=np.array([[0.0, 0.0, 1.0]] * 2),
            spin_mag=0.5,
            g=2.0,
        )


@pytest.mark.parametrize("site", [(np.nan, 0.0, 0.0), (1e300, 0.0, 0.0), (0.0, -2e6, 0.0),
                                  (0.0, 0.0, 2e4)])
def test_texture_rejects_sites_that_are_not_finite_within_bounds(site):
    # Such a site would overflow the squared distances of the pair sums.
    with pytest.raises(ValueError, match="site 1 at .* is non-finite or past the"):
        SpinTexture(positions=[(0.0, 0.0, 0.0), site], spin_dirs=[(0.0, 0.0, 1.0)] * 2,
                    spin_mag=0.5, g=2.0)


def closest_pair_oracle(positions):
    """The full-matrix duplicate check: its error text, or None."""
    dist = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=2)
    dist[np.diag_indices(len(dist))] = np.inf
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    if dist[i, j] > 0.1:
        return None
    return f"sites {i} and {j} are {dist[i, j]:.4g} A apart (minimum separation 0.1 A)"


# Coordinates that make exact duplicates, ties and pairs just either
# side of the 0.1 A threshold.
NEAR = [0.0, 0.05, 0.1 - 1e-12, 0.1, 0.1 + 1e-12, 0.3, 1.0]


@settings(max_examples=300, deadline=None)
@given(
    sites=st.lists(st.tuples(*[st.sampled_from(NEAR)] * 3), min_size=1, max_size=12),
    block_rows=st.integers(1, 13),
)
def test_blocked_distinct_check_matches_full_matrix(sites, block_rows):
    positions = np.array(sites)
    with mock.patch.object(texture, "_BLOCK_BYTES", 17 * len(sites) * block_rows):
        try:
            texture._check_distinct(positions)
            message = None
        except ValueError as exc:
            message = str(exc)
    assert message == closest_pair_oracle(positions)


@pytest.mark.parametrize("budget", [1, 17 * 576 * 7 + 5, texture._BLOCK_BYTES])
def test_distinct_check_names_the_same_pair_under_any_block_budget(budget):
    # Two pairs 0.05 A apart, to the bit, in different blocks, and a
    # farther one: at any block size, down to one row, the first closest
    # pair in row-major order is named.
    pos = build_lattice("square", 3.0, 24, 24).positions
    for i, j, dz in ((10, 300, 0.08), (100, 575, 0.05), (200, 450, 0.05)):
        pos[j] = pos[i] + (0.0, 0.0, dz)
    with mock.patch.object(texture, "_BLOCK_BYTES", budget):
        with pytest.raises(ValueError, match=r"^sites 100 and 575 are 0\.05 A apart"):
            texture._check_distinct(pos)


def test_distinct_check_memory_is_linear_in_sites():
    lat = build_lattice("square", 3.0, 56, 56)  # 3,136 sites
    tracemalloc.start()
    try:
        apply_pattern(lat, "FM")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The full (n, n, 3) comparison would need 236 MB for its first array.
    assert peak < 16 * 2**20


@pytest.mark.parametrize("positions, spin_dirs, message", [
    ([[0.0, 0.0]], [[0.0, 0.0, 1.0]], "must be \\(n, 3\\) arrays"),
    ([[0.0, 0.0, 0.0]], [[0.0, 1.0]], "must be \\(n, 3\\) arrays"),
    ([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], "must have equal length"),
    (np.zeros((0, 3)), np.zeros((0, 3)), "at least one site"),
], ids=["positions-not-n-by-3", "dirs-not-n-by-3", "unequal-lengths", "no-sites"])
def test_texture_rejects_malformed_site_arrays(positions, spin_dirs, message):
    with pytest.raises(ValueError, match=message):
        SpinTexture(positions, spin_dirs, 0.5, 2.0)


def test_texture_rejects_negative_spin_mag():
    lat = build_lattice("square", 3.0, 2, 2)
    with pytest.raises(ValueError):
        apply_pattern(lat, "FM", direction=(0.0, 0.0, 1.0), spin_mag=-0.5, g=2.0)


@pytest.mark.parametrize("spin_mag, g, message", [
    (1e308, 2.0, "spin magnitude must be finite and >= 0, at most 1000"),
    (1000.5, 2.0, "at most 1000"), (0.5, 1e200, "sample g must be finite and within"),
    (0.5, -1000.5, "within \\+/-1000"),
])
def test_texture_rejects_spins_past_their_bounds(spin_mag, g, message):
    # Past these bounds the field sums of a texture at the site budget
    # could overflow.
    with pytest.raises(ValueError, match=message):
        SpinTexture([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], spin_mag, g)
    SpinTexture([[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], 1e3, -1e3)


def test_zero_spin_mag_skips_direction_check():
    # spin_mag = 0 is legal and lifts the unit-direction invariant.
    tex = SpinTexture(
        positions=np.array([[0.0, 0.0, 0.0]]),
        spin_dirs=np.array([[0.0, 0.0, 0.0]]),
        spin_mag=0.0,
        g=2.0,
    )
    assert np.allclose(tex.spin_vectors, 0.0)


# ------------------------------------------------------------------ file io


def test_save_load_round_trip(tmp_path, fm_5x5):
    path = tmp_path / "t.spintex"
    save_texture(fm_5x5, path)
    back = load_texture(path)
    assert np.allclose(back.positions, fm_5x5.positions, atol=1e-9)
    assert np.allclose(back.spin_dirs, fm_5x5.spin_dirs, atol=1e-9)
    assert back.spin_mag == pytest.approx(fm_5x5.spin_mag, abs=1e-12)
    assert back.g == pytest.approx(fm_5x5.g, abs=1e-12)


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.spintex"
    p.write_text("garbage\n")
    with pytest.raises(TextureParseError, match=r"bad\.spintex:1"):
        load_texture(p)


def test_load_rejects_short_site_line(tmp_path):
    p = tmp_path / "bad.spintex"
    p.write_text(
        "spintex 1\nlattice square\na_angstrom 3\nnx 1\nny 1\n"
        "spin_magnitude 0.5\ng_factor 2\n0 0 0 0 1\n"
    )
    with pytest.raises(TextureParseError, match=":8"):
        load_texture(p)


def test_load_rejects_non_numeric(tmp_path):
    p = tmp_path / "bad.spintex"
    p.write_text(
        "spintex 1\nlattice square\na_angstrom 3\nnx 1\nny 1\n"
        "spin_magnitude 0.5\ng_factor 2\n0 0 0 0 0 up\n"
    )
    with pytest.raises(TextureParseError, match=":8"):
        load_texture(p)


@pytest.mark.parametrize("site", ["nan 0 0 0 0 1", "0 inf 0 0 0 1", "0 0 0 nan 0 1"])
def test_load_rejects_non_finite_site(tmp_path, site):
    p = tmp_path / "bad.spintex"
    p.write_text(
        "spintex 1\nlattice square\na_angstrom 3\nnx 1\nny 1\n"
        f"spin_magnitude 0.5\ng_factor 2\n{site}\n"
    )
    with pytest.raises(TextureParseError, match=":8: non-finite"):
        load_texture(p)


def test_load_rejects_non_finite_header(tmp_path):
    p = tmp_path / "bad.spintex"
    p.write_text(
        "spintex 1\nlattice square\na_angstrom 3\nnx 1\nny 1\n"
        "spin_magnitude nan\ng_factor 2\n0 0 0 0 0 1\n"
    )
    with pytest.raises(TextureParseError, match=":6: malformed header spin_magnitude = 'nan'"):
        load_texture(p)


def test_load_rejects_far_from_unit_direction(tmp_path):
    p = tmp_path / "bad.spintex"
    p.write_text(
        "spintex 1\nlattice square\na_angstrom 3\nnx 1\nny 1\n"
        "spin_magnitude 0.5\ng_factor 2\n0 0 0 0 0 0.9\n"
    )
    with pytest.raises(TextureParseError, match="direction"):
        load_texture(p)


def test_load_renormalizes_near_unit_direction(tmp_path):
    p = tmp_path / "near.spintex"
    p.write_text(
        "spintex 1\nlattice square\na_angstrom 3\nnx 1\nny 1\n"
        "spin_magnitude 0.5\ng_factor 2\n0 0 0 0 0 1.0005\n"
    )
    with pytest.warns(UserWarning):
        tex = load_texture(p)
    assert np.linalg.norm(tex.spin_dirs[0]) == pytest.approx(1.0, abs=1e-12)


def test_load_rejects_empty_texture(tmp_path):
    p = tmp_path / "empty.spintex"
    p.write_text(
        "spintex 1\nlattice square\na_angstrom 3\nnx 0\nny 0\n"
        "spin_magnitude 0.5\ng_factor 2\n"
    )
    with pytest.raises(TextureParseError):
        load_texture(p)


def test_load_rejects_missing_header(tmp_path):
    p = tmp_path / "nohdr.spintex"
    p.write_text("spintex 1\nlattice square\n0 0 0 0 0 1\n")
    with pytest.raises(TextureParseError, match="nohdr.spintex: missing header line 'a_angstrom'"):
        load_texture(p)


def test_custom_texture_round_trips_with_zero_lattice_header(tmp_path):
    # A texture without lattice indexing is written as 'custom' with a = 0
    # and nx = ny = 0, and those header values load.
    tex = SpinTexture(positions=[[0.0, 0.0, 0.0], [1.3, 0.4, 0.0]],
                      spin_dirs=[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], spin_mag=1.5, g=2.1)
    path = tmp_path / "custom.spintex"
    save_texture(tex, path)
    assert "lattice custom\na_angstrom 0\nnx 0\nny 0\n" in path.read_text()
    back = load_texture(path)
    assert back.lattice_meta == {"type": "custom", "a": 0.0, "nx": 0, "ny": 0}
    assert np.array_equal(back.positions, tex.positions)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(["FM", "AFM-Neel", "stripe"]),
    st.floats(0.5, 4.0),
)
def test_round_trip_property(tmp_path_factory, nx, ny, pattern, spin_mag):
    lat = build_lattice("square", 3.0, nx, ny)
    tex = apply_pattern(lat, pattern, direction=(0.0, 0.0, 1.0),
                        spin_mag=spin_mag, g=2.0)
    path = tmp_path_factory.mktemp("rt") / "t.spintex"
    save_texture(tex, path)
    back = load_texture(path)
    assert np.allclose(back.positions, tex.positions, atol=1e-9)
    assert np.allclose(back.spin_vectors, tex.spin_vectors, atol=1e-9)
