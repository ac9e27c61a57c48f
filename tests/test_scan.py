"""Scan engine: effective fields, raster maps, pair mode, sweeps.

Frozen anchors (center exchange field, pair-mode discrepancy bounds,
crossover radius) come from independent oracle evaluations of the
closed-form field sums and a 9-level exact pair diagonalization.
"""

import contextlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinscan import (
    CONSTANTS,
    ProbeSpec,
    SampleSite,
    ScanConfig,
    SpinTexture,
    apply_pattern,
    build_forward,
    build_lattice,
    distance_sweep,
    effective_fields_at,
    exchange_constant,
    pair_mode_resonance,
    probe_hamiltonian_at,
    probe_resonances,
    scan_constant_height,
    scan_iso_frequency,
    spin_operators,
    zeeman_hamiltonian,
    zfs_hamiltonian,
)
from spinscan import reconstruct, scan
from spinscan.scan import (
    _BLOCK_BYTES,
    _MAX_LATERAL,
    Grid,
    _batch_effective_fields,
    _batch_hamiltonians,
    _energy_vectors,
)
from spinscan.spincore import _batch_resonances, _check_exchange_range, _field_resonances

H_GHZ = CONSTANTS.h_planck
D_UEV = 14.4


def stray_field(r_vec, spin_vec, g):
    """Oracle: stray field (tesla) of a classical spin at displacement r_vec
    (angstrom), B = -(mu0 g mu_B / 4 pi r^3) (3 rhat (S.rhat) - S)."""
    r = np.asarray(r_vec, dtype=float)
    dist = np.linalg.norm(r)
    rhat = r / dist
    pref = -g * CONSTANTS.stray_prefactor_per_mu_b / dist**3
    return pref * (3.0 * rhat * np.dot(spin_vec, rhat) - spin_vec)


def _single_texture(position, direction=(0.0, 0.0, 1.0)):
    return SpinTexture(
        positions=np.atleast_2d(position),
        spin_dirs=np.atleast_2d(direction).astype(float),
        spin_mag=0.5,
        g=2.0,
    )


# The site of _single_texture((0, 0, 0)) and the first site of fm_5x5.
ORIGIN_SITE = SampleSite(position=np.zeros(3), spin_dir=np.array([0.0, 0.0, 1.0]),
                         spin_mag=0.5, g=2.0)


# ----------------------------------------------------------- field assembly


def test_fields_superpose_over_sites(fm_5x5):
    # Both field channels are site sums, so the texture total equals the
    # sum of single-site contributions.
    tip = (5.1, 4.3, 4.0)
    b_stray, b_ex = effective_fields_at(tip, fm_5x5)
    acc_stray = np.zeros(3)
    acc_ex = np.zeros(3)
    for pos, svec in zip(fm_5x5.positions, fm_5x5.spin_vectors):
        one = _single_texture(pos)
        bs, be = effective_fields_at(tip, one)
        acc_stray += bs
        acc_ex += be
    assert np.allclose(b_stray, acc_stray, atol=1e-12)
    assert np.allclose(b_ex, acc_ex, atol=1e-12)


def test_fields_match_scalar_constructions(single_site):
    # One site at the origin: the engine's sums reduce to the spin-core
    # primitives evaluated at the displacement.
    tip = np.array([1.0, -2.0, 4.0])
    b_stray, b_ex = effective_fields_at(tip, single_site)
    expect_stray = stray_field(tip, single_site.spin_vectors[0], g=single_site.g)
    assert np.allclose(b_stray, expect_stray, rtol=1e-12)
    j = exchange_constant(np.linalg.norm(tip))
    assert np.allclose(b_ex, j * single_site.spin_vectors[0], rtol=1e-12)


def test_center_exchange_field_frozen(fm_5x5):
    # Tip 4 A above the central site of the 5x5 FM lattice.
    _, b_ex = effective_fields_at((6.0, 6.0, 4.0), fm_5x5)
    assert b_ex[0] == 0.0 and b_ex[1] == 0.0
    assert b_ex[2] == pytest.approx(557.80803857, rel=1e-8)


def test_tip_too_close_rejected(single_site):
    with pytest.raises(ValueError, match="0"):
        effective_fields_at((0.0, 0.0, 0.05), single_site)


def test_translation_invariance(fm_5x5):
    # Shifting texture and tip together leaves the spectrum unchanged.
    shift = np.array([13.7, -4.1, 0.0])
    shifted = SpinTexture(
        positions=fm_5x5.positions + shift,
        spin_dirs=fm_5x5.spin_dirs,
        spin_mag=fm_5x5.spin_mag,
        g=fm_5x5.g,
    )
    cfg = ScanConfig(mode="both")
    tip = np.array([5.0, 7.0, 4.0])
    pair_a = probe_resonances(probe_hamiltonian_at(tip, fm_5x5, cfg))
    pair_b = probe_resonances(probe_hamiltonian_at(tip + shift, shifted, cfg))
    assert pair_a.f_minus == pytest.approx(pair_b.f_minus, abs=1e-10)
    assert pair_a.f_plus == pytest.approx(pair_b.f_plus, abs=1e-10)


def test_mode_gating(single_site):
    # exchange mode must ignore the stray field and dipolar mode the
    # exchange field; "both" includes the two.
    tip = (0.0, 0.0, 4.0)
    pairs = {}
    for mode in ("exchange", "dipolar", "both"):
        cfg = ScanConfig(mode=mode)
        pairs[mode] = probe_resonances(probe_hamiltonian_at(tip, single_site, cfg))
    j = exchange_constant(4.0)
    # Exchange mode at zero external field: axial closed form with
    # e_z = J * s_z = J / 2.
    expect_plus = (D_UEV + 0.5 * j) / H_GHZ
    assert pairs["exchange"].f_plus == pytest.approx(expect_plus, rel=1e-10)
    # Dipolar mode: Zeeman on the anti-parallel stray field.
    bz = stray_field(tip, single_site.spin_vectors[0], g=2.0)[2]
    assert bz < 0.0
    e_z = abs(ScanConfig().probe.g * CONSTANTS.mu_b * bz)
    assert pairs["dipolar"].f_plus == pytest.approx((D_UEV + e_z) / H_GHZ, rel=1e-10)
    # Both: the anti-parallel stray Zeeman partially cancels the exchange
    # field, so the combined branch sits below exchange-only.
    both_expect = (D_UEV + abs(0.5 * j - e_z)) / H_GHZ
    assert pairs["both"].f_plus == pytest.approx(both_expect, rel=1e-10)
    assert pairs["exchange"].f_plus > pairs["both"].f_plus > pairs["dipolar"].f_plus


# ------------------------------------------------------- blocked field kernel


def _dense_fields(tips, tex, exchange_prefactor="rydberg"):
    """Oracle: both field sums over one dense (tips, sites, 3) array."""
    disp = tips[:, None, :] - tex.positions[None, :, :]
    dist = np.linalg.norm(disp, axis=2)
    rhat = disp / dist[..., None]
    spins = tex.spin_vectors
    s_dot_r = np.einsum("pnk,nk->pn", rhat, spins)
    pref = -tex.g * CONSTANTS.stray_prefactor_per_mu_b / dist**3
    b_stray = np.sum(
        pref[..., None] * (3.0 * rhat * s_dot_r[..., None] - spins[None, :, :]),
        axis=1,
    )
    j = exchange_constant(dist, prefactor=exchange_prefactor)
    b_ex = np.sum(j[..., None] * spins[None, :, :], axis=1)
    return b_stray, b_ex


@pytest.fixture(scope="module")
def tilted_neel():
    """12x12 Neel lattice, a = 3 A, spins tilted 35 degrees off z."""
    theta, phi = np.radians(35.0), np.radians(20.0)
    direction = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    lat = build_lattice("square", 3.0, 12, 12)
    return apply_pattern(lat, "AFM-Neel", direction=direction, spin_mag=0.5, g=2.0)


@pytest.fixture(scope="module")
def mixed_tips(tilted_neel):
    """Tips over the lattice at heights 2.5-10 A, spanning several blocks."""
    rng = np.random.default_rng(4)
    n = 4 * _BLOCK_BYTES // (8 * tilted_neel.n_sites) + 17
    return np.column_stack(
        [rng.uniform(-3.0, 36.0, (n, 2)), rng.uniform(2.5, 10.0, n)]
    )


@pytest.mark.parametrize("prefactor", ["rydberg", "hartree"])
def test_blocked_fields_match_dense_oracle(tilted_neel, mixed_tips, prefactor):
    # The Neel sums cancel to near zero at some tips, so the tolerance is
    # relative to each channel's largest component.
    got = _batch_effective_fields(mixed_tips, tilted_neel, prefactor)[:2]
    want = _dense_fields(mixed_tips, tilted_neel, prefactor)
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=300),
)
def test_blocked_fields_independent_of_batch_split(tilted_neel, mixed_tips, neel_5x5,
                                                   cuts, block_rows):
    # Worker-count determinism rests on this: a tip's fields are the same
    # bits whichever batch, and which block within it, the tip lands in.
    whole = _batch_effective_fields(mixed_tips, tilted_neel, "rydberg")
    pieces = [
        _batch_effective_fields(part, tilted_neel, "rydberg")
        for part in np.split(mixed_tips, sorted(set(cuts)))
        if len(part)
    ]
    for k in range(2):
        assert np.array_equal(whole[k], np.concatenate([p[k] for p in pieces]))
    # The forward kernel walks the same blocks: any block size, same bits.
    args = (neel_5x5, (-1.0, 13.0), (-1.0, 13.0), 0.5, 3.0, "both")
    default = build_forward(*args).a
    with mock.patch.object(scan, "_BLOCK_BYTES", 8 * neel_5x5.n_sites * block_rows):
        assert np.array_equal(build_forward(*args).a, default)


@pytest.mark.parametrize("mode", ["exchange", "dipolar", "both"])
@pytest.mark.parametrize("budget", [1, 30_000, _BLOCK_BYTES // 2])
def test_field_sums_are_bit_identical_under_any_block_budget(monkeypatch, tilted_neel,
                                                             mixed_tips, mode, budget):
    # A budget of 1 byte walks one tip per block; a tip's fields are the
    # same bits in every mode whatever the block size.
    want = _batch_effective_fields(mixed_tips, tilted_neel, "rydberg", mode)
    monkeypatch.setattr(scan, "_BLOCK_BYTES", budget)
    got = _batch_effective_fields(mixed_tips, tilted_neel, "rydberg", mode)
    for g, w in zip(got[:2], want[:2], strict=True):
        assert (g is None and w is None) or np.array_equal(g, w)
    assert got[2] == want[2]


@pytest.mark.parametrize("mode", ["exchange", "dipolar", "both"])
@pytest.mark.parametrize("n_cells", [1, 8, 24])  # 1, 64 and 576 sites
def test_a_walk_holds_its_block_budget(monkeypatch, mode, n_cells):
    # One field-sum walk's traced peak, its outputs aside, is its block's
    # planes, which fill _BLOCK_BYTES, plus a stated slack: a quarter of the
    # budget for numpy's ufunc buffers (128 KiB here: two of 8,192 float64
    # for broadcast operands) and vectors of the sites, and three vectors of
    # one block's tips (the row sums, as large as a plane with one site).
    tex = apply_pattern(build_lattice("square", 3.0, n_cells, n_cells), "AFM-Neel",
                        direction=(0.6, 0.0, 0.8))
    rng = np.random.default_rng(7)
    n = 60_000 // tex.n_sites + 50
    tips = np.column_stack([rng.uniform(-3.0, 3.0 * n_cells, (n, 2)),
                            rng.uniform(2.5, 10.0, n)])
    rows = []
    walk = scan._walk_pairs

    def spy(tips, tex, prefactor, mode, visit, scratch):
        def recorded(block, dx, *planes):
            rows.append(len(dx))
            visit(block, dx, *planes)

        return walk(tips, tex, prefactor, mode, recorded, scratch)

    monkeypatch.setattr(scan, "_walk_pairs", spy)
    tracemalloc.start()
    try:
        b_stray, b_ex, _ = _batch_effective_fields(tips, tex, "rydberg", mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak - sum(b.nbytes for b in (b_stray, b_ex) if b is not None)
    assert len(rows) >= 3
    slack = _BLOCK_BYTES // 4 + 3 * 8 * max(rows)
    assert 0.9 * _BLOCK_BYTES <= held <= _BLOCK_BYTES + slack, (held, slack)


def test_near_range_warning_once_with_global_minimum(fm_5x5):
    # Heights fall across a batch of several blocks, so every block sees a
    # different closest distance.  The field sum returns the smallest and
    # does not warn; the caller's one check reports it.
    n = 3 * _BLOCK_BYTES // (8 * fm_5x5.n_sites)
    heights = np.linspace(1.9, 1.3, n)
    tips = np.column_stack([np.full(n, 6.0), np.full(n, 6.0), heights])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        r_min = _batch_effective_fields(tips, fm_5x5, "rydberg")[2]
        assert not caught
        _check_exchange_range(r_min, stacklevel=1)
    messages = [str(w.message) for w in caught]
    assert len(messages) == 1
    assert "r = 1.3 A" in messages[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_warns_once_per_call(fm_5x5, workers):
    # Off the pixel lattice the dense sum runs in four row chunks, each
    # with its own closest distance; the scan warns once, at the smallest.
    cfg = ScanConfig(height=1.5, x_range=(0.2, 1.1), y_range=(0.2, 1.1), step=0.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan_constant_height(cfg, fm_5x5, workers=workers)
    assert len(caught) == 1
    assert f"r = {np.hypot(0.2 * np.sqrt(2.0), 1.5):g} A" in str(caught[0].message)
    assert caught[0].filename == __file__


def test_iso_frequency_warns_once_per_call(fm_5x5):
    # The rounds probe heights from z_min up, over and between sites; one
    # warning names the closest pair of any round, the tip at z_min over
    # a site.
    cfg = ScanConfig(x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=1.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scan_iso_frequency(cfg, fm_5x5, 30000.0, 1.2, 12.0)
    assert len(caught) == 1
    assert "r = 1.2 A" in str(caught[0].message)
    assert caught[0].filename == __file__


@pytest.mark.parametrize("call, r_min", [
    (lambda tex: effective_fields_at((0.0, 0.0, 1.5), tex), 1.5),
    (lambda tex: probe_hamiltonian_at((0.0, 0.0, 1.5), tex, ScanConfig()), 1.5),
    (lambda tex: pair_mode_resonance((0.0, 0.0, 1.5), ORIGIN_SITE, ScanConfig()), 1.5),
    # The crossover search evaluates J again below 2 A; it does not warn again.
    (lambda tex: distance_sweep(0.3, 1e4, 500), 0.3),
], ids=["effective_fields_at", "probe_hamiltonian_at", "pair_mode_resonance",
        "distance_sweep"])
def test_single_point_entries_warn_once_at_the_caller(fm_5x5, call, r_min):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(fm_5x5)
    assert len(caught) == 1
    assert f"r = {r_min:g} A" in str(caught[0].message)
    assert caught[0].filename == __file__


@pytest.mark.parametrize("call", [
    lambda tex: effective_fields_at((np.nan, 0.0, 4.0), tex),
    lambda tex: probe_hamiltonian_at((0.0, 0.0, np.nan), tex, ScanConfig()),
    lambda tex: pair_mode_resonance((0.0, np.inf, 4.0), ORIGIN_SITE, ScanConfig()),
], ids=["effective_fields_at", "probe_hamiltonian_at", "pair_mode_resonance"])
def test_single_point_entries_refuse_a_non_finite_tip(fm_5x5, call):
    with pytest.raises(ValueError, match="tip position must be finite"):
        call(fm_5x5)


def test_too_close_error_names_closest_pair(fm_5x5):
    # Two offending tips in different blocks: the error names the closer
    # one and its site, not the first one found.
    n = 3 * _BLOCK_BYTES // (8 * fm_5x5.n_sites)
    tips = np.column_stack([np.full(n, 7.5), np.full(n, 7.5), np.full(n, 4.0)])
    tips[5] = fm_5x5.positions[3] + (0.0, 0.0, 0.08)
    tips[n - 2] = fm_5x5.positions[17] + (0.0, 0.0, 0.05)
    x, y, _ = fm_5x5.positions[17]
    with pytest.raises(ValueError) as err:
        _batch_effective_fields(tips, fm_5x5, "rydberg")
    assert f"tip at ({x:.4g}, {y:.4g}, 0.05) A is 0.05 A from sample site 17" in str(
        err.value
    )


def test_exchange_mode_skips_stray_sums(monkeypatch, tilted_neel, mixed_tips):
    # The sums of the channel the mode drops are skipped; what the mode
    # keeps is the same bits as when both were summed.
    full = _batch_effective_fields(mixed_tips, tilted_neel, "rydberg")
    skipped = _batch_effective_fields(mixed_tips, tilted_neel, "rydberg", "exchange")
    assert skipped[0] is None
    assert np.array_equal(skipped[1], full[1])
    assert skipped[2] == full[2]
    skipped = _batch_effective_fields(mixed_tips, tilted_neel, "rydberg", "dipolar")
    assert skipped[1] is None
    assert np.array_equal(skipped[0], full[0])
    assert skipped[2] == full[2]
    # In a scan, dense or FFT, no stray field reaches the resonances, and
    # the map's f+- are the bits the stray sums would have given, had they
    # been summed and ignored.
    cfg = ScanConfig(height=4.0, mode="exchange", step=0.6)
    tips = Grid.from_ranges(cfg.x_range, cfg.y_range, cfg.step).tips(cfg.height)
    b_stray, b_ex, _ = _batch_effective_fields(tips, tilted_neel, "rydberg")
    given = []  # (b_stray, b_ex) of each chunk, in row order with one worker

    def energy_vectors(*fields_and_cfg):
        given.append(fields_and_cfg[:2])
        return _energy_vectors(*fields_and_cfg)

    monkeypatch.setattr(scan, "_energy_vectors", energy_vectors)
    dense = mock.patch.object(scan, "_lattice_fields", return_value=None)
    for path in (contextlib.nullcontext(), dense):
        given.clear()
        with path:
            rmap = scan_constant_height(cfg, tilted_neel)
        assert given and all(bs is None for bs, _ in given)
        scan_b_ex = np.concatenate([bx for _, bx in given])
        f_minus, f_plus = _field_resonances(
            _energy_vectors(b_stray, scan_b_ex, cfg), cfg.probe.d_zfs)
        assert np.array_equal(rmap.f_minus.ravel(), f_minus)
        assert np.array_equal(rmap.f_plus.ravel(), f_plus)
    assert np.array_equal(scan_b_ex, b_ex)


def test_walks_build_only_the_planes_their_mode_reads(monkeypatch, tilted_neel,
                                                     mixed_tips):
    # A spy on every walk's visitor: dipolar walks pass j = None and never
    # call the exchange formula, exchange walks pass pref = None.  The
    # kernel images of the FFT map and of the gathered forward kernel come
    # from walks too, and reconstruct's own spy sees the dense kernel.
    seen = set()
    walk = scan._walk_pairs

    def spy(tips, tex, prefactor, mode, visit, scratch):
        def recorded(rows, dx, dy, dz, d2, j, pref, tmp):
            seen.add((mode, j is None, pref is None))
            visit(rows, dx, dy, dz, d2, j, pref, tmp)

        return walk(tips, tex, prefactor, mode, recorded, scratch)

    monkeypatch.setattr(scan, "_walk_pairs", spy)
    monkeypatch.setattr(reconstruct, "_walk_pairs", spy)
    collinear = apply_pattern(build_lattice("square", 3.0, 3, 3), "AFM-Neel")
    honeycomb = apply_pattern(build_lattice("honeycomb", 3.0, 2, 2), "AFM-Neel")

    def walks(mode):
        _batch_effective_fields(mixed_tips, tilted_neel, "rydberg", mode)
        for tex in (collinear, honeycomb):
            build_forward(tex, (0.0, 6.0), (0.0, 6.0), 0.75, 4.0, mode)
        cfg = ScanConfig(x_range=(0.0, 6.0), y_range=(0.0, 6.0), step=0.75, mode=mode)
        scan_constant_height(cfg, tilted_neel)
        with mock.patch.object(scan, "_lattice_fields", return_value=None):
            scan_constant_height(cfg, tilted_neel)
        scan_iso_frequency(cfg, tilted_neel, 3.7 if mode == "dipolar" else 120.0,
                           2.0, 12.0)

    with monkeypatch.context() as m:
        m.setattr(scan, "_exchange_formula",
                  mock.Mock(side_effect=AssertionError("a dipolar walk evaluated J")))
        walks("dipolar")
    walks("exchange")
    walks("both")
    assert seen == {("dipolar", True, False), ("exchange", False, True),
                    ("both", False, False)}


# ----------------------------------------------------------- FFT lattice sums


def _tilted_texture(lattice, pattern="AFM-Neel"):
    return apply_pattern(lattice, pattern, direction=(0.36, -0.48, 0.8), spin_mag=0.5,
                         g=2.0)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2.5, 3.0, 4.2]),
    st.integers(min_value=1, max_value=8),
    st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
    st.tuples(st.integers(-30, 40), st.integers(-30, 40)),
    st.tuples(st.integers(1, 60), st.integers(1, 60)),
    st.sampled_from([2.0, 3.0, 7.5]),
    st.sampled_from(["exchange", "dipolar", "both"]),
)
def test_fft_fields_match_dense_sum(a, multiple, frac, start, size, height, mode):
    # Steps a whole fraction of the lattice constant, pixels offset from
    # the sites by any sub-step fraction, windows on, around and off the
    # lattice.  The FFT's rounding is spread evenly over the image, so the
    # scale is each channel's largest value over the sites: a window in a
    # Neel texture's cancelling tail may hold only far smaller fields.
    step = a / multiple
    tex = _tilted_texture(build_lattice("square", a, 5, 4))
    grid = Grid((start[0] + frac[0]) * step, (start[1] + frac[1]) * step, step, *size)
    cfg = ScanConfig(height=height, step=step, mode=mode)
    got = scan._lattice_fields(grid, tex, cfg)
    assert got is not None
    want = _batch_effective_fields(grid.tips(height), tex, "rydberg")[:2]
    scale = _batch_effective_fields(tex.positions + (0.0, 0.0, height), tex, "rydberg")
    assert (got[0] is None) == (mode == "exchange")
    assert (got[1] is None) == (mode == "dipolar")
    for g, w, top in zip(got, want, scale[:2], strict=True):
        if g is not None:
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(top))


def _off_lattice_cases(fm_5x5):
    nudged = fm_5x5.positions.copy()
    nudged[7, 0] += 1e-9
    lifted = fm_5x5.positions.copy()
    lifted[7, 2] = 0.5
    far = np.array([[0.0, 0.0, 0.0], [3000.0, 3000.0, 0.0]])
    return [
        ("triangular", _tilted_texture(build_lattice("triangular", 3.0, 5, 5), "FM"), 4.0),
        ("nudged", SpinTexture(nudged, fm_5x5.spin_dirs, 0.5, 2.0), 4.0),
        ("two heights", SpinTexture(lifted, fm_5x5.spin_dirs, 0.5, 2.0), 4.0),
        ("close", fm_5x5, 1.5),
        ("over budget", SpinTexture(far, [[0.0, 0.0, 1.0]] * 2, 0.5, 2.0), 4.0),
    ]


def test_fft_path_applies_on_the_pixel_lattice(fm_5x5):
    # The control for the fall-back cases below.
    grid = Grid.from_ranges((0.0, 12.0), (0.0, 12.0), 0.5)
    assert scan._lattice_fields(grid, fm_5x5, ScanConfig(height=4.0, step=0.5)) is not None


@pytest.mark.parametrize("case", range(5))
def test_fft_path_falls_back_to_the_dense_sum(fm_5x5, case):
    name, tex, height = _off_lattice_cases(fm_5x5)[case]
    cfg = ScanConfig(height=height, x_range=(0.0, 12.0), y_range=(6.0, 6.0), step=0.5,
                     mode="both")
    grid = Grid.from_ranges(cfg.x_range, cfg.y_range, cfg.step)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert scan._lattice_fields(grid, tex, cfg) is None, name
        rmap = scan_constant_height(cfg, tex)
    # One row, one chunk: the dense sum warns once below 2 A.
    assert len(caught) == (1 if name == "close" else 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with mock.patch.object(scan, "_lattice_fields", return_value=None):
            dense = scan_constant_height(cfg, tex)
    for key in ("f_minus", "f_plus"):
        assert np.array_equal(getattr(rmap, key), getattr(dense, key)), (name, key)


@pytest.mark.parametrize("axes", [(0, 1, 2), (2,)])
@pytest.mark.parametrize("mode", ["exchange", "dipolar", "both"])
@pytest.mark.parametrize("prefactor", ["rydberg", "hartree"])
def test_lattice_images_match_unit_spin_field_sums(monkeypatch, axes, mode, prefactor):
    # Each image is, to the bit, the field sum of one unit spin along b at
    # the corner site: J for "j", B_a for (a, b).  Blocks of 37 to 49 tips,
    # by mode, so several blocks run and the last one is short.
    monkeypatch.setattr(scan, "_BLOCK_BYTES", 64 * 37)
    tex = SpinTexture(build_lattice("square", 3.0, 4, 3).positions + (1.5, -2.25, 0.5),
                      [[0.36, -0.48, 0.8]] * 12, 0.5, 2.3)
    grid = Grid(-0.6 * 0.75, 0.3 * 0.75, 0.75, 12, 9)
    ix, iy, kernel, _, images = scan._lattice_images(grid, tex, 3.1, prefactor, mode, axes)
    corner = [tex.positions[np.argmin(ix), 0], tex.positions[np.argmin(iy), 1], 0.5]
    tips = kernel.tips(3.1)
    assert len(tips) > 10 * 37
    want = {}
    for b in axes:
        unit = SpinTexture([corner], [np.eye(3)[b]], 1.0, tex.g)
        b_stray, b_ex, _ = _batch_effective_fields(tips, unit, prefactor, mode)
        if b_ex is not None:
            want["j"] = b_ex[:, b]
        for a in range(b, 3) if b_stray is not None else ():
            want[a, b] = b_stray[:, a]
    assert images.keys() == want.keys()
    for key, image in images.items():
        assert np.array_equal(image, want[key]), key


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-_MAX_LATERAL, max_value=_MAX_LATERAL),
    st.floats(min_value=-_MAX_LATERAL, max_value=_MAX_LATERAL),
    st.floats(min_value=1e-6, max_value=1e3),
    st.integers(min_value=1, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)
def test_grid_rebuilt_from_its_ranges_is_the_same_grid(x0, y0, step, nx, ny):
    # reconstruct --map rebuilds the map's grid from its ranges and step.
    grid = Grid(x0, y0, step, nx, ny)
    assume(max(map(abs, grid.x_range + grid.y_range)) <= _MAX_LATERAL)
    assert Grid.from_ranges(grid.x_range, grid.y_range, grid.step) == grid


@pytest.mark.parametrize("x_range", [(0.0, 2e6), (-1e300, 0.0), (np.nan, 0.0)])
def test_grid_rejects_far_lateral_coordinates(x_range):
    with pytest.raises(ValueError, match="within"):
        Grid.from_ranges(x_range, (0.0, 1.0), 0.5)


@pytest.mark.parametrize("x_range", [(0.0, 3.0), (1e6, 1e6), (-1e6, 1e6)])
def test_grid_subnormal_step_is_refused_without_overflow(x_range):
    # A range is compared with the budget before it is divided by the step;
    # a single-pixel row at a far origin counts its one point.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if x_range[0] == x_range[1]:
            assert Grid.from_ranges(x_range, (0.0, 0.0), 5e-324).nx == 1
        else:
            with pytest.raises(ValueError, match="pixel budget"):
                Grid.from_ranges(x_range, (0.0, 0.0), 5e-324)


def test_scan_shift_matches_forward_kernel(fm_5x5):
    # Exchange mode, collinear +z FM, zero field: the upper branch sits at
    # D/h plus the axial exchange shift, which is the forward model A @ m_z.
    cfg = ScanConfig(height=4.0, x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=0.75)
    rmap = scan_constant_height(cfg, fm_5x5)
    fwd = build_forward(fm_5x5, cfg.x_range, cfg.y_range, cfg.step, cfg.height,
                        "exchange")
    m_z = fm_5x5.spin_mag * fm_5x5.spin_dirs[:, 2]
    shift = rmap.f_plus.ravel() - cfg.probe.d_zfs / H_GHZ
    assert np.allclose(shift, fwd.a @ m_z, rtol=1e-10, atol=0.0)


# ------------------------------------------------------------------ rasters


def test_grid_geometry(fm_5x5):
    cfg = ScanConfig(height=4.0, x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=0.25)
    rmap = scan_constant_height(cfg, fm_5x5)
    assert (rmap.nx, rmap.ny) == (49, 49)
    assert rmap.xs[0] == 0.0 and rmap.xs[-1] == pytest.approx(12.0)
    assert rmap.f_plus.shape == (49, 49)
    assert np.all(np.isfinite(rmap.f_plus))


def test_map_indexing_matches_pointwise(fm_5x5):
    # rmap[iy, ix] must equal the single-point evaluation at (x, y).
    cfg = ScanConfig(height=4.0, x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=3.0)
    rmap = scan_constant_height(cfg, fm_5x5)
    for iy in (0, 2, 4):
        for ix in (1, 3):
            tip = (rmap.xs[ix], rmap.ys[iy], cfg.height)
            pair = probe_resonances(probe_hamiltonian_at(tip, fm_5x5, cfg))
            assert rmap.f_plus[iy, ix] == pytest.approx(pair.f_plus, abs=1e-12)
            assert rmap.f_minus[iy, ix] == pytest.approx(pair.f_minus, abs=1e-12)


def _map_cases(fm_5x5, neel_5x5, tilted_neel):
    """(texture, b_ext) by name: FM, Neel and tilted Neel, and FM in a field."""
    return {
        "FM": (fm_5x5, (0.0, 0.0, 0.0)),
        "Neel": (neel_5x5, (0.0, 0.0, 0.0)),
        "tilted": (tilted_neel, (0.0, 0.0, 0.0)),
        "b_ext": (fm_5x5, (0.2, -0.1, 0.35)),
    }


@pytest.mark.parametrize("height, path", [
    (h, p) for h in (1.5, 2.5, 4.0, 8.0, 20.0, 100.0) for p in ("dense", "fft")
    if h >= 2.0 or p == "dense"  # the FFT path applies 2 A or more above the sites
])
@pytest.mark.parametrize("case", ["FM", "Neel", "tilted", "b_ext"])
def test_map_resonances_match_eigh(fm_5x5, neel_5x5, tilted_neel, case, height, path):
    # The scan's closed-form resonances against eigh on the same fields:
    # the FFT path's or, for the dense path, the blocked sum's at each tip.
    tex, b_ext = _map_cases(fm_5x5, neel_5x5, tilted_neel)[case]
    cfg = ScanConfig(height=height, x_range=(-3.0, 15.0), y_range=(-3.0, 15.0), step=0.75,
                     mode="both", b_ext=b_ext)
    grid = Grid.from_ranges(cfg.x_range, cfg.y_range, cfg.step)
    fields = scan._lattice_fields(grid, tex, cfg)
    assert (fields is None) == (height < 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # J below 2 A at 1.5 A
        if path == "dense":
            fields = _batch_effective_fields(grid.tips(height), tex, "rydberg")[:2]
            with mock.patch.object(scan, "_lattice_fields", return_value=None):
                rmap = scan_constant_height(cfg, tex)
        else:
            rmap = scan_constant_height(cfg, tex)
    f_minus, f_plus = _batch_resonances(_batch_hamiltonians(*fields, cfg))
    scale = np.maximum(f_plus, cfg.probe.d_zfs / H_GHZ)
    assert np.max(np.abs(rmap.f_minus.ravel() - f_minus) / scale) <= 1e-12
    assert np.max(np.abs(rmap.f_plus.ravel() - f_plus) / scale) <= 1e-12


@pytest.mark.parametrize("path", ["dense", "fft"])
def test_map_bytes_independent_of_workers(tilted_neel, path):
    cfg = ScanConfig(height=4.0, x_range=(-3.0, 36.0), y_range=(-3.0, 36.0), step=0.75,
                     mode="both", b_ext=(0.2, -0.1, 0.35))
    dense = mock.patch.object(scan, "_lattice_fields", return_value=None)
    with dense if path == "dense" else contextlib.nullcontext():
        maps = [scan_constant_height(cfg, tilted_neel, workers=w) for w in (1, 4)]
    for key in ("f_minus", "f_plus"):
        assert getattr(maps[0], key).tobytes() == getattr(maps[1], key).tobytes()


def test_worker_count_determinism(fm_5x5):
    cfg = ScanConfig(height=4.0, step=0.75)
    maps = [scan_constant_height(cfg, fm_5x5, workers=w) for w in (1, 2, 4)]
    for other in maps[1:]:
        assert np.array_equal(maps[0].f_plus, other.f_plus)
        assert np.array_equal(maps[0].f_minus, other.f_minus)


def test_symmetric_texture_symmetric_map(fm_5x5):
    # The 5x5 FM texture is symmetric under x <-> y about its diagonal,
    # so the map on the matching window is transpose-symmetric.
    cfg = ScanConfig(height=4.0, x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=0.75)
    rmap = scan_constant_height(cfg, fm_5x5)
    assert np.allclose(rmap.f_plus, rmap.f_plus.T, atol=1e-9)
    # And under x -> 12 - x (mirror through the lattice center).
    assert np.allclose(rmap.f_plus, rmap.f_plus[:, ::-1], atol=1e-9)


def test_signal_conventions(fm_5x5):
    cfg = ScanConfig(height=4.0, step=3.0)
    rmap = scan_constant_height(cfg, fm_5x5)
    assert np.array_equal(rmap.signal("transition"), rmap.f_plus)
    assert np.allclose(rmap.signal("splitting"), rmap.f_plus - rmap.f_minus)
    with pytest.raises(ValueError):
        rmap.signal("bogus")


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(height=0.5)  # below the 1 A tip-height floor
    with pytest.raises(ValueError, match="within"):
        ScanConfig(height=1e150)  # above the 1 um ceiling
    with pytest.raises(ValueError):
        ScanConfig(step=0.0)
    with pytest.raises(ValueError):
        ScanConfig(mode="telepathic")
    with pytest.raises(ValueError):
        ScanConfig(resonance_convention="bogus")
    with pytest.raises(ValueError):
        ScanConfig(x_range=(5.0, 1.0))
    with pytest.raises(ValueError):
        ScanConfig(exchange_prefactor="bogus")
    with pytest.raises(ValueError, match="finite"):
        ScanConfig(step=float("nan"))
    with pytest.raises(ValueError, match="finite"):
        ScanConfig(x_range=(0.0, float("inf")))


# ---------------------------------------------------------------- iso scans


def test_iso_frequency_self_consistency(single_site):
    # Feed back f_plus measured at 4 A: the recovered height is 4 A.
    cfg = ScanConfig(height=4.0, x_range=(0.0, 0.0), y_range=(0.0, 0.0), step=1.0)
    pair = probe_resonances(probe_hamiltonian_at((0.0, 0.0, 4.0), single_site, cfg))
    iso = scan_iso_frequency(cfg, single_site, pair.f_plus, 2.0, 10.0)
    assert iso.heights[0, 0] == pytest.approx(4.0, abs=1e-3)


def test_iso_frequency_monotone_height_with_frequency(single_site):
    # FM exchange: f_plus decreases with height, so a larger f_source
    # pulls the recovered height down.
    cfg = ScanConfig(x_range=(0.0, 0.0), y_range=(0.0, 0.0), step=1.0)
    f4 = probe_resonances(probe_hamiltonian_at((0.0, 0.0, 4.0), single_site, cfg)).f_plus
    f5 = probe_resonances(probe_hamiltonian_at((0.0, 0.0, 5.0), single_site, cfg)).f_plus
    assert f4 > f5
    z4 = scan_iso_frequency(cfg, single_site, f4, 2.0, 10.0).heights[0, 0]
    z5 = scan_iso_frequency(cfg, single_site, f5, 2.0, 10.0).heights[0, 0]
    assert z4 < z5
    assert z5 == pytest.approx(5.0, abs=1e-3)


def test_iso_frequency_out_of_range_is_nan(single_site):
    cfg = ScanConfig(x_range=(0.0, 0.0), y_range=(0.0, 0.0), step=1.0)
    iso = scan_iso_frequency(cfg, single_site, 1e9, 2.0, 10.0)
    assert np.isnan(iso.heights[0, 0])


@pytest.mark.parametrize("f_source", [np.nan, np.inf, -np.inf, 0.0, -5.0])
def test_iso_frequency_rejects_unreachable_source(single_site, f_source):
    # f_plus is finite and at least D/h > 0, so no pixel can reach these.
    cfg = ScanConfig(x_range=(0.0, 0.0), y_range=(0.0, 0.0), step=1.0)
    with pytest.raises(ValueError, match="f_source must be positive and finite"):
        scan_iso_frequency(cfg, single_site, f_source, 2.0, 10.0)


def test_iso_frequency_rejects_bad_bracket(single_site):
    cfg = ScanConfig(x_range=(0.0, 0.0), y_range=(0.0, 0.0), step=1.0)
    with pytest.raises(ValueError):
        scan_iso_frequency(cfg, single_site, 100.0, 8.0, 3.0)
    with pytest.raises(ValueError, match="z_max"):
        scan_iso_frequency(cfg, single_site, 100.0, 2.0, 1e150)


def _bisection_heights(cfg, tex, f_source, z_min, z_max):
    """Oracle: per-pixel bisection with the same bracket test, 1 MHz stop
    and iteration cap as scan_iso_frequency."""

    def offset(x, y, z):
        return scan._branches(cfg, tex, np.array([[x, y, z]]))[1][0] - f_source

    heights = []
    for x, y, _ in Grid.from_ranges(cfg.x_range, cfg.y_range, cfg.step).tips(0.0):
        lo, hi = z_min, z_max
        f_lo = offset(x, y, lo)
        if f_lo * offset(x, y, hi) > 0.0:
            heights.append(np.nan)
            continue
        for _ in range(scan._ISO_MAX_ITER):
            mid = 0.5 * (lo + hi)
            f_mid = offset(x, y, mid)
            if abs(f_mid) < scan._ISO_FREQ_TOL_GHZ:
                break
            if f_lo * f_mid > 0.0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        else:
            mid = 0.5 * (lo + hi)
        heights.append(mid)
    return np.array(heights)


@pytest.mark.parametrize("pattern, mode, b_ext, f_source", [
    ("FM", "exchange", (0.0, 0.0, 0.0), 120.0),
    ("AFM-Neel", "exchange", (0.0, 0.0, 0.0), 120.0),
    ("FM", "both", (0.02, -0.01, 0.03), 120.0),
    ("AFM-Neel", "both", (0.02, -0.01, 0.03), 5.0),  # near D/h = 3.48 GHz
    ("FM", "exchange", (0.0, 0.0, 0.0), 5.0),
    ("FM", "dipolar", (0.0, 0.0, 0.0), 8.0),  # most pixels unbracketed
])
def test_iso_frequency_matches_bisection(pattern, mode, b_ext, f_source):
    tex = _tilted_texture(build_lattice("square", 3.0, 4, 4), pattern)
    cfg = ScanConfig(x_range=(-1.5, 10.5), y_range=(-1.5, 10.5), step=1.5,
                     mode=mode, b_ext=b_ext)
    got = scan_iso_frequency(cfg, tex, f_source, 2.0, 12.0).heights.ravel()
    bracketed = np.isfinite(_check_against_bisection(cfg, tex, f_source, got))
    assert bracketed.any()
    if mode == "dipolar":
        assert bracketed.sum() < bracketed.size / 2


def _check_against_bisection(cfg, tex, f_source, got):
    """Check iso heights got, in pixel order, against the bisection oracle
    over [2, 12] A: the same pixels bracketed, f_plus within 1 MHz of the
    source, and heights within the 2 MHz the two stops allow over the
    local slope.  Returns the oracle's heights."""
    want = _bisection_heights(cfg, tex, f_source, 2.0, 12.0)
    bracketed = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), bracketed)
    xy = Grid.from_ranges(cfg.x_range, cfg.y_range, cfg.step).tips(0.0)[bracketed, :2]

    def f_plus(z):
        return scan._branches(cfg, tex, np.column_stack([xy, z]))[1]

    z = got[bracketed]
    assert np.all(np.abs(f_plus(z) - f_source) < scan._ISO_FREQ_TOL_GHZ)
    # Both stop within 1 MHz of the source, so they differ by at most
    # 2 MHz over the local slope.
    slope = (f_plus(z + 1e-4) - f_plus(z - 1e-4)) / 2e-4
    assert np.all(np.abs(z - want[bracketed]) <= 2e-3 / np.abs(slope))
    return want


@pytest.mark.parametrize("x_range, y_range, shape", [
    ((0.0, 0.0), (0.0, 6.0), (13, 1)),
    ((0.0, 6.0), (4.5, 4.5), (1, 13)),
    ((4.5, 5.0), (4.5, 5.0), (2, 2)),
], ids=["Nx1", "1xN", "2x2"])
def test_iso_frequency_narrow_grids_match_bisection(x_range, y_range, shape):
    # An axis shorter than the coarse stride has only coarse pixels.
    tex = _tilted_texture(build_lattice("square", 3.0, 4, 4), "FM")
    cfg = ScanConfig(x_range=x_range, y_range=y_range, step=0.5)
    got = scan_iso_frequency(cfg, tex, 120.0, 2.0, 12.0).heights
    assert got.shape == shape
    assert np.isfinite(_check_against_bisection(cfg, tex, 120.0, got.ravel())).all()


@pytest.mark.parametrize("defect", ["vacancy", "lowered site"])
def test_iso_frequency_rebrackets_missed_tight_ends(monkeypatch, defect):
    # On a texture with a vacancy or a site 0.5 A down, some fine pixels'
    # first step from their start misses the crossing and they step again;
    # next to the vacancy some miss twice and search [z_min, z_max].
    lattice = _tilted_texture(build_lattice("square", 3.0, 4, 4), "FM")
    pos, dirs = lattice.positions.copy(), lattice.spin_dirs
    if defect == "vacancy":
        pos, dirs = np.delete(pos, 10, axis=0), np.delete(dirs, 10, axis=0)
    else:
        pos[10, 2] -= 0.5
    tex = SpinTexture(pos, dirs, 0.5, 2.0)
    cfg = ScanConfig(x_range=(0.0, 9.0), y_range=(0.0, 9.0), step=1.0)
    calls = []
    branches = scan._branches

    def recording(cfg, tex, tips):
        calls.append(tips)
        return branches(cfg, tex, tips)

    with monkeypatch.context() as m:
        m.setattr(scan, "_branches", recording)
        got = scan_iso_frequency(cfg, tex, 120.0, 2.0, 12.0).heights.ravel()
    # A search of [z_min, z_max] evaluates its pixels at z_min, then at
    # z_max: the 4 x 4 coarse pixels, then the fine pixels that missed.
    full = [len(a) for a, b in zip(calls, calls[1:])
            if np.all(a[:, 2] == 2.0) and np.all(b[:, 2] == 12.0)
            and np.array_equal(a[:, :2], b[:, :2])]
    assert len(full) == 2 and full[0] == 16
    assert full[1] > 0 or defect == "lowered site"
    # solve's points lie strictly inside their bracket, so a pixel whose
    # third point lies outside its first two stepped again after a miss.
    points = {}
    for tips in calls:
        for x, y, z in tips:
            points.setdefault((x, y), []).append(z)
    assert any(not min(z[:2]) < z[2] < max(z[:2]) for z in points.values() if len(z) > 2)
    assert np.isfinite(_check_against_bisection(cfg, tex, 120.0, got)).all()


def test_iso_frequency_partly_bracketed_dipolar_grid_matches_bisection():
    # Near D/h the dipolar crossing exists over about half the pixels, so
    # fine pixels start from NaN coarse corners as well as tight brackets.
    tex = _tilted_texture(build_lattice("square", 3.0, 4, 4), "FM")
    cfg = ScanConfig(x_range=(-1.5, 10.5), y_range=(-1.5, 10.5), step=0.75,
                     mode="dipolar")
    got = scan_iso_frequency(cfg, tex, 3.7, 2.0, 12.0).heights.ravel()
    bracketed = np.isfinite(_check_against_bisection(cfg, tex, 3.7, got))
    assert 0.25 < bracketed.mean() < 0.75


def test_iso_frequency_unbracketed_grid_is_all_nan(fm_5x5):
    # No pixel brackets the source: the coarse map is all NaN, and its
    # height steps and interpolant raise no numpy warning.
    cfg = ScanConfig(x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iso = scan_iso_frequency(cfg, fm_5x5, 1e9, 2.0, 12.0)
    assert iso.heights.shape == (13, 13)
    assert np.all(np.isnan(iso.heights))


@pytest.mark.parametrize("fraction", [0.5, 1.0])
def test_iso_frequency_source_at_or_below_zero_field_line_is_all_nan(fm_5x5, fraction):
    # f_plus never falls below D/h, so no pixel brackets such a source; the
    # secant then works on the raw offset, and raises no numpy warning.
    cfg = ScanConfig(x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=1.0)
    f_source = fraction * cfg.probe.d_zfs / H_GHZ
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        iso = scan_iso_frequency(cfg, fm_5x5, f_source, 2.0, 12.0)
    assert iso.heights.shape == (13, 13)
    assert np.all(np.isnan(iso.heights))


def test_iso_frequency_work_per_pixel(monkeypatch):
    # Bisection spends about 22 field evaluations per pixel here.
    tex = _tilted_texture(build_lattice("square", 3.0, 8, 8), "FM")
    cfg = ScanConfig(x_range=(0.0, 21.0), y_range=(0.0, 21.0), step=1.0)
    rows = []
    branches = scan._branches

    def counting(cfg, tex, tips):
        rows.append(len(tips))
        return branches(cfg, tex, tips)

    monkeypatch.setattr(scan, "_branches", counting)
    iso = scan_iso_frequency(cfg, tex, 120.0, 2.0, 12.0)
    assert np.all(np.isfinite(iso.heights))
    assert sum(rows) <= 8 * iso.heights.size


def test_iso_frequency_coarse_to_fine_work_per_pixel(monkeypatch):
    # At the 0.25 A pixel pitch of the isoscan benchmark, fine pixels take
    # their start, one predicted step and one secant round, about 3.3
    # evaluations per pixel; with every pixel on [z_min, z_max] it is 7.
    tex = _tilted_texture(build_lattice("square", 3.0, 8, 8), "FM")
    cfg = ScanConfig(x_range=(0.0, 10.0), y_range=(0.0, 10.0), step=0.25)
    rows = []
    branches = scan._branches

    def counting(cfg, tex, tips):
        rows.append(len(tips))
        return branches(cfg, tex, tips)

    monkeypatch.setattr(scan, "_branches", counting)
    iso = scan_iso_frequency(cfg, tex, 120.0, 2.0, 12.0)
    assert iso.heights.shape == (41, 41)
    assert np.all(np.isfinite(iso.heights))
    assert sum(rows) <= 4.5 * iso.heights.size


def _iso_evaluations_per_pixel(monkeypatch, cfg, tex):
    """Heights of a 120 GHz iso scan over [2, 12] A and its field
    evaluations per pixel."""
    rows = []
    branches = scan._branches

    def counting(cfg, tex, tips):
        rows.append(len(tips))
        return branches(cfg, tex, tips)

    with monkeypatch.context() as m:
        m.setattr(scan, "_branches", counting)
        heights = scan_iso_frequency(cfg, tex, 120.0, 2.0, 12.0).heights
    return heights, sum(rows) / heights.size


def test_iso_frequency_aliased_coarse_grid_work_per_pixel(monkeypatch):
    # Four 0.75 A steps span one 3 A lattice period, so every coarse pixel
    # sits over a site: the coarse heights differ by a fifth of the fine
    # ones' range at most, through the texture's edges alone.
    tex = _tilted_texture(build_lattice("square", 3.0, 8, 8), "FM")
    cfg = ScanConfig(x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=0.75)
    heights, per_pixel = _iso_evaluations_per_pixel(monkeypatch, cfg, tex)
    coarse = heights[::scan._ISO_STRIDE, ::scan._ISO_STRIDE]
    assert np.ptp(coarse) < np.ptp(heights) / 5
    assert per_pixel <= 5.0
    assert np.isfinite(_check_against_bisection(cfg, tex, 120.0, heights.ravel())).all()


def test_iso_frequency_benchmark_pitch_work_per_pixel(monkeypatch):
    # The isoscan benchmark's 85 x 85 pixels at 0.25 A, off the lattice:
    # 484 coarse pixels at 7 evaluations, the rest at about 3.
    tex = _tilted_texture(build_lattice("square", 3.0, 8, 8), "FM")
    cfg = ScanConfig(x_range=(0.1, 21.1), y_range=(0.2, 21.2), step=0.25)
    heights, per_pixel = _iso_evaluations_per_pixel(monkeypatch, cfg, tex)
    assert heights.shape == (85, 85)
    assert np.all(np.isfinite(heights))
    assert per_pixel <= 3.6


def test_iso_frequency_safeguard_at_zero_field_end(monkeypatch, single_site):
    # f_plus sits at D/h below z = 4, so the secant variable is -inf at
    # z_min and the secant point lands on z_max; the safeguard bisects.
    f_zfs = D_UEV / H_GHZ
    monkeypatch.setattr(scan, "_branches", lambda cfg, tex, tips: (
        None, f_zfs + 10.0 * np.maximum(tips[:, 2] - 4.0, 0.0), np.inf))
    cfg = ScanConfig(x_range=(0.0, 0.0), y_range=(0.0, 0.0), step=1.0)
    iso = scan_iso_frequency(cfg, single_site, f_zfs + 20.0, 2.0, 12.0)
    assert iso.heights[0, 0] == pytest.approx(6.0, abs=1e-4)


# ---------------------------------------------------------------- pair mode


def _pair_vs_meanfield(z):
    """Max |exact - mean-field| over both transitions, and the J^2 bound."""
    cfg = ScanConfig(height=z, mode="exchange", probe=ProbeSpec(d_zfs=D_UEV, g=2.0))
    tip = (0.0, 0.0, z)
    mf = probe_resonances(probe_hamiltonian_at(tip, _single_texture((0.0, 0.0, 0.0)), cfg))
    exact = pair_mode_resonance(tip, ORIGIN_SITE, cfg)
    j = exact.j_uev
    # The site is polarized +z: mean field corresponds to the m = +1/2
    # sector of the exact model.
    sector = exact.sectors[0.5]
    d_minus = abs(sector.f_minus - mf.f_minus)
    d_plus = abs(sector.f_plus - mf.f_plus)
    bound = 2.0 * j**2 / (D_UEV * H_GHZ)
    return max(d_minus, d_plus), bound


@pytest.mark.parametrize("z", [6.0, 7.0, 8.0])
def test_pair_mode_within_second_order_bound(z):
    discrepancy, bound = _pair_vs_meanfield(z)
    assert discrepancy <= bound


def test_pair_mode_sector_antisymmetry():
    # At first order the two site sectors shift each transition by
    # opposite amounts; their sorted pairs coincide by up-down symmetry.
    cfg = ScanConfig(height=6.0, mode="exchange", probe=ProbeSpec(d_zfs=D_UEV, g=2.0))
    res = pair_mode_resonance((0.0, 0.0, 6.0), ORIGIN_SITE, cfg)
    up = res.sectors[0.5]
    down = res.sectors[-0.5]
    assert up.f_minus == pytest.approx(down.f_minus, rel=1e-12)
    assert up.f_plus == pytest.approx(down.f_plus, rel=1e-12)
    # Signed first-order shifts from the labeled level energies: the
    # (0, m_site) -> (1, m_site) gap is D + J m_site + O(J^2/D), so the
    # signed shift flips with the sector to second order.
    e = res.labeled_energies
    shift_up = (e[(1.0, 0.5)] - e[(0.0, 0.5)]) - D_UEV
    shift_down = (e[(1.0, -0.5)] - e[(0.0, -0.5)]) - D_UEV
    second_order = 2.0 * res.j_uev**2 / D_UEV
    assert shift_up == pytest.approx(-shift_down, abs=second_order)
    assert shift_up == pytest.approx(0.5 * res.j_uev, abs=second_order)
    assert shift_up > 0.0 > shift_down


def test_pair_mode_far_site_in_oblique_field_is_the_bare_probe():
    # At 30 A J is negligible: the site's Zeeman term shifts every level of
    # an m_site sector alike, so each sector's pair is the bare probe's
    # resonances under the same field.
    b_ext = (0.01, 0.0, 0.05)
    cfg = ScanConfig(b_ext=b_ext)
    res = pair_mode_resonance((0.0, 0.0, 30.0), ORIGIN_SITE, cfg)
    bare = probe_resonances(zfs_hamiltonian(cfg.probe)
                            + zeeman_hamiltonian(cfg.probe.g, b_ext, spin_operators(1.0)))
    assert bare.f_plus - bare.f_minus > 1.0  # the field splits the branches
    assert set(res.sectors) == {0.5, -0.5}
    for pair in res.sectors.values():
        assert pair.f_minus == pytest.approx(bare.f_minus, rel=1e-9)
        assert pair.f_plus == pytest.approx(bare.f_plus, rel=1e-9)


def test_pair_mode_rejects_non_half_integer_spin():
    site = SampleSite(position=np.zeros(3), spin_dir=np.array([0.0, 0.0, 1.0]),
                      spin_mag=0.3, g=2.0)
    with pytest.raises(ValueError):
        pair_mode_resonance((0.0, 0.0, 6.0), site, ScanConfig())


# ------------------------------------------------------------------- sweeps


def test_sweep_columns_and_values():
    curve = distance_sweep(2.0, 100.0, 200, log_spacing=True)
    assert curve.r.shape == (200,)
    assert np.all(np.diff(curve.r) > 0)
    assert curve.r[0] == pytest.approx(2.0) and curve.r[-1] == pytest.approx(100.0)
    # Row nearest r = 3 A sits in the multi-THz regime near J(3)/h.
    i = np.argmin(np.abs(curve.r - 3.0))
    assert curve.f_res[i] == pytest.approx(curve.j_ex[i] / H_GHZ, rel=1e-12)
    assert 4000.0 < curve.f_res[i] < 5200.0  # grid point is 3.02 A, not 3 A
    # Dipolar column follows g^2 * prefactor / r^3 exactly.
    expect_dd = 4.0 * CONSTANTS.dipole_energy_prefactor / curve.r**3
    assert np.allclose(curve.e_dd, expect_dd, rtol=1e-12)
    # Stray field column: 2 * spin_mag * g * prefactor / r^3.
    expect_b = 2.0 * 0.5 * CONSTANTS.stray_prefactor_per_mu_b * 2.0 / curve.r**3
    assert np.allclose(curve.b_stray, expect_b, rtol=1e-12)


@pytest.mark.parametrize("log_spacing, prefactor, spin_mag, g_sample", [
    (False, "rydberg", 0.5, 2.0),
    (True, "rydberg", 1.5, 2.0023),
    (False, "hartree", 1.5, 2.0023),
    (True, "hartree", 0.5, 2.0),
])
def test_sweep_reads_the_scan_field_sums(log_spacing, prefactor, spin_mag, g_sample):
    # J is exchange_constant's bits: the one-site sum is J times a unit
    # spin, at a distance sqrt(r^2) = r.  The on-axis stray field is
    # 2 g C s / r^3 to rounding: about 12 half-ulps in the field sum and 4
    # in this expression, so 8 eps relative.
    with pytest.warns(UserWarning, match="below the 2 A validity range"):
        curve = distance_sweep(0.1, 1e4, 100_000, log_spacing, prefactor, spin_mag,
                               g_sample=g_sample)
    with pytest.warns(UserWarning, match="below the 2 A validity range"):
        assert np.array_equal(curve.j_ex, exchange_constant(curve.r, prefactor))
    expect = 2.0 * g_sample * CONSTANTS.stray_prefactor_per_mu_b * spin_mag / curve.r**3
    assert np.all(np.abs(curve.b_stray - expect) <= 8 * np.finfo(float).eps * expect)
    assert np.array_equal(curve.f_res, curve.j_ex / H_GHZ)


def test_sweep_crossover_frozen():
    curve = distance_sweep(2.0, 20.0, 400)
    assert curve.crossover_r == pytest.approx(6.112, abs=5e-3)


def test_sweep_crossover_none_outside_range():
    curve = distance_sweep(10.0, 20.0, 50)
    assert curve.crossover_r is None


def test_sweep_rejects_bad_args():
    with pytest.raises(ValueError):
        distance_sweep(2.0, 20.0, 1)
    with pytest.raises(ValueError):
        distance_sweep(20.0, 2.0, 10)
    with pytest.raises(ValueError):
        distance_sweep(-1.0, 2.0, 10)


def test_sweep_rejects_distances_outside_the_tip_bounds():
    # Not only r_min <= 0 or r_max = inf: below 0.1 A the 1/r^3 columns
    # overflow, and past 1e4 A J's x^2.5 factor and the 1/r^3 columns do.
    with pytest.raises(ValueError, match=r"0.1 <= r_min"):
        distance_sweep(1e-300, 1.0, 5)
    with pytest.raises(ValueError, match="r_max must be at most 10000 A"):
        distance_sweep(1.0, 1e300, 5)
    assert distance_sweep(2.0, scan._MAX_HEIGHT, 5).r[-1] == 1e4
    with pytest.warns(UserWarning, match="below the 2 A validity range"):
        assert distance_sweep(scan._MIN_TIP_SITE_DISTANCE, 1.0, 5).r[0] == 0.1


@pytest.mark.parametrize("r_max", [np.inf, np.nan])
def test_sweep_rejects_non_finite_r_max(r_max):
    with pytest.raises(ValueError, match="r_max < inf"):
        distance_sweep(2.0, r_max, 10)


def test_sweep_over_point_budget_is_refused():
    # Refused before allocating, even far past memory.
    with pytest.raises(ValueError, match=f"2 to {scan._MAX_SWEEP_POINTS} sweep points"):
        distance_sweep(2.0, 20.0, 10**12)
    assert distance_sweep(2.0, 20.0, scan._MAX_SWEEP_POINTS).r.size == (
        scan._MAX_SWEEP_POINTS)


def test_exchange_decays_faster_than_any_power():
    # d log J / d log r = 2.5 - 2 r / a_B: unbounded below, so the decay
    # eventually beats any fixed power law.
    r = np.linspace(3.0, 20.0, 200)
    slope = np.gradient(np.log(exchange_constant(r)), np.log(r))
    analytic = 2.5 - 2.0 * r / CONSTANTS.bohr_radius
    assert np.allclose(slope[1:-1], analytic[1:-1], rtol=0.01)
    assert slope[-1] < -70.0
    assert np.all(np.diff(slope) < 0)
