"""Forward kernels, conditioning analysis, and SVD Tikhonov inversion.

Frozen conditioning numbers (exchange kernel at 4 A over the 5x5
lattice, dipolar kernel at 100 A) come from an independent dense
eigenanalysis oracle run once and recorded here.
"""

import contextlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinscan import (
    CONSTANTS,
    ScanConfig,
    apply_pattern,
    build_forward,
    build_lattice,
    conditioning_report,
    exchange_constant,
    lcurve,
    scan_constant_height,
    solve_tikhonov,
)
from spinscan import SpinTexture, reconstruct, scan
from spinscan.scan import Grid

D_GHZ = 14.4 / CONSTANTS.h_planck
GRID = dict(x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=0.75)


# ------------------------------------------------------------------ forward


def test_forward_matches_scan_in_linear_regime(fm_5x5, neel_5x5):
    # Exchange coupling is linear in the site moments, so A m must equal
    # the f_plus shift from a full scan at the same geometry when the
    # net field keeps one sign (FM).
    fwd = build_forward(fm_5x5, height=4.0, mode="exchange", **GRID)
    cfg = ScanConfig(height=4.0, mode="exchange", step=0.75)
    rmap = scan_constant_height(cfg, fm_5x5)
    m_true = fm_5x5.spin_mag * fm_5x5.spin_dirs[:, 2]
    predicted = fwd.a @ m_true
    observed = (rmap.f_plus - D_GHZ).ravel()
    assert np.max(np.abs(predicted - observed)) < 1e-9
    # On a Neel texture the measured shift is |A m|: the resonance pair
    # is even under field reversal, so the raw map is sign-blind and
    # only the synthetic (signed) observable inverts directly.
    fwd_n = build_forward(neel_5x5, height=4.0, mode="exchange", **GRID)
    rmap_n = scan_constant_height(cfg, neel_5x5)
    m_n = neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2]
    shift_n = (rmap_n.f_plus - D_GHZ).ravel()
    assert np.max(np.abs(np.abs(fwd_n.a @ m_n) - shift_n)) < 1e-9


def test_forward_shape_and_units(fm_5x5):
    fwd = build_forward(fm_5x5, height=4.0, mode="exchange", **GRID)
    assert fwd.a.shape == (17 * 17, 25)
    assert np.all(fwd.a > 0)  # exchange kernel is strictly positive
    # A column's peak value is J(height) / h at the pixel over the site.
    from spinscan import exchange_constant

    col = fwd.a[:, 12]  # central site sits on a grid point
    assert col.max() == pytest.approx(
        exchange_constant(4.0) / CONSTANTS.h_planck, rel=1e-12
    )


def _dense_forward(tex, tips, mode):
    """Oracle: the forward kernel over one dense (tips, sites, 3) array."""
    disp = tips[:, None, :] - tex.positions[None, :, :]
    dist = np.linalg.norm(disp, axis=2)
    a = np.zeros(dist.shape)
    if mode in ("exchange", "both"):
        a += exchange_constant(dist) / CONSTANTS.h_planck
    if mode in ("dipolar", "both"):
        rhat_z = disp[:, :, 2] / dist
        bz = -tex.g * CONSTANTS.stray_prefactor_per_mu_b / dist**3 * (3 * rhat_z**2 - 1)
        a += CONSTANTS.g_e_default * CONSTANTS.mu_b * bz / CONSTANTS.h_planck
    return a


@pytest.mark.parametrize("mode", ["exchange", "dipolar", "both"])
@pytest.mark.parametrize("height", [3.0, 12.0])
def test_forward_matches_dense_oracle(neel_5x5, mode, height):
    fwd = build_forward(neel_5x5, height=height, mode=mode, **GRID)
    grid_x, grid_y = np.meshgrid(0.75 * np.arange(17), 0.75 * np.arange(17))
    tips = np.column_stack([grid_x.ravel(), grid_y.ravel(), np.full(17 * 17, height)])
    want = _dense_forward(neel_5x5, tips, mode)
    assert np.max(np.abs(fwd.a - want)) <= 1e-13 * np.max(np.abs(want))


def _dense_path():
    """Force build_forward onto the dense pair walk."""
    return mock.patch.object(reconstruct, "_lattice_images", return_value=None)


@pytest.mark.parametrize("height", [3.0, 12.0])
def test_forward_both_is_the_sum_of_its_channels(neel_5x5, height):
    # Each mode builds only its own planes; "both" adds the same terms in
    # the same order, so it is their sum to the bit, gathered or walked.
    for path in (contextlib.nullcontext(), _dense_path()):
        with path:
            exchange, dipolar, both = (
                build_forward(neel_5x5, height=height, mode=mode, **GRID).a
                for mode in ("exchange", "dipolar", "both")
            )
        assert np.array_equal(both, exchange + dipolar)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2.5, 3.0, 4.2]),
    st.integers(min_value=1, max_value=8),
    st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=20, max_size=20),
    st.tuples(st.floats(0.0, 0.999), st.floats(0.0, 0.999)),
    st.tuples(st.integers(-30, 40), st.integers(-30, 40)),
    st.tuples(st.integers(1, 40), st.integers(1, 40)),
    st.floats(2.0, 100.0),
    st.sampled_from(["exchange", "dipolar", "both"]),
)
@example(a=4.2, multiple=1, signs=[-1.0] * 20, frac=(0.0, 0.5), start=(-29, 0), size=(1, 1),
         height=40.0, mode="exchange")
def test_forward_gather_matches_dense_oracle(a, multiple, signs, frac, start, size,
                                             height, mode):
    # A 5x4 square lattice with vacancies (sign 0) and +/-z moments, steps a
    # whole fraction of the lattice constant, pixels offset from the sites
    # by any sub-step fraction, windows on, around and off the lattice.
    assume(any(signs))
    lat = build_lattice("square", a, 5, 4)
    kept = np.flatnonzero(signs)
    tex = SpinTexture(lat.positions[kept], np.outer(np.take(signs, kept), [0, 0, 1]),
                      0.5, 2.0)
    step = a / multiple
    x0, y0 = ((s + f) * step for s, f in zip(start, frac))
    grid = Grid(x0, y0, step, *size)
    with mock.patch.object(reconstruct, "_walk_pairs",
                           side_effect=AssertionError("took the dense walk")):
        fwd = build_forward(tex, grid.x_range, grid.y_range, step, height, mode)
    tips = grid.tips(height)
    want = _dense_forward(tex, tips, mode)
    # One ulp of r moves J(r) by about (2r/a_B + 2.5) u relative.  Far off
    # the lattice every entry lies in J's tail, where that exceeds 1e-13 of
    # the largest entry, so each exchange entry is bound by its own
    # conditioning too.
    tol = 1e-13 * np.max(np.abs(want))
    if mode != "dipolar":
        x = np.linalg.norm(tips[:, None] - tex.positions[None], axis=2) / CONSTANTS.bohr_radius
        j = np.abs(_dense_forward(tex, tips, "exchange"))
        tol = np.maximum(tol, 4 * (2 * x + 2.5) * np.finfo(float).eps * j)
    assert np.all(np.abs(fwd.a - want) <= tol)


def _off_lattice_textures(fm_5x5):
    """(name, texture, height) of inputs the gather does not take."""
    nudged = fm_5x5.positions.copy()
    nudged[7, 0] += 1e-9
    lifted = fm_5x5.positions.copy()
    lifted[7, 2] = 0.5
    honeycomb = apply_pattern(build_lattice("honeycomb", 3.0, 4, 4), "AFM-Neel")
    return [
        ("honeycomb", honeycomb, 4.0),
        ("nudged", SpinTexture(nudged, fm_5x5.spin_dirs, 0.5, 2.0), 4.0),
        ("two heights", SpinTexture(lifted, fm_5x5.spin_dirs, 0.5, 2.0), 4.0),
        ("close", fm_5x5, 1.5),
        ("over budget", fm_5x5, 4.0),
    ]


@pytest.mark.parametrize("case", range(5))
def test_forward_falls_back_to_the_dense_walk(fm_5x5, monkeypatch, case):
    # Off the pixel lattice, or with the image over budget, the dense walk
    # runs and no kernel image is built; the gather runs for the control.
    # The dense walk is reconstruct's _walk_pairs, the image walk scan's.
    name, tex, height = _off_lattice_textures(fm_5x5)[case]
    calls = []
    for module, key in ((reconstruct, "dense"), (scan, "image")):
        real = module._walk_pairs
        monkeypatch.setattr(module, "_walk_pairs", lambda *args, real=real, key=key:
                            calls.append(key) or real(*args))
    build_forward(fm_5x5, height=4.0, mode="both", **GRID)
    assert "dense" not in calls and "image" in calls
    calls.clear()
    if name == "over budget":
        # The 17x17 x 25 kernel fits exactly; its 33x33 offset grid does not.
        for module in (scan, reconstruct):
            monkeypatch.setattr(module, "_MAX_KERNEL_BYTES", 8 * 17 * 17 * 25)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # J below 2 A at 1.5 A
        fwd = build_forward(tex, height=height, mode="both", **GRID)
        with _dense_path():
            dense = build_forward(tex, height=height, mode="both", **GRID)
    assert calls == ["dense", "dense"], name
    assert np.array_equal(fwd.a, dense.a), name


def test_forward_rejects_transverse_texture():
    lat = build_lattice("square", 3.0, 2, 2)
    tex = apply_pattern(lat, "FM", direction=(1.0, 0.0, 0.0), spin_mag=0.5, g=2.0)
    with pytest.raises(ValueError, match="z"):
        build_forward(tex, height=4.0, mode="exchange", **GRID)


def test_forward_rejects_low_height(fm_5x5):
    with pytest.raises(ValueError):
        build_forward(fm_5x5, height=0.5, mode="exchange", **GRID)


def test_forward_rejects_height_above_ceiling(fm_5x5):
    # 1e150 A would overflow the squared tip-site distance.
    with pytest.raises(ValueError, match="within"):
        build_forward(fm_5x5, height=1e150, mode="exchange", **GRID)


@pytest.mark.parametrize("height", [np.nan, np.inf])
def test_forward_rejects_non_finite_height(fm_5x5, height):
    with pytest.raises(ValueError, match="finite"):
        build_forward(fm_5x5, height=height, mode="exchange", **GRID)


def test_forward_checks_grid_and_kernel_budget(fm_5x5):
    # 641 x 641 pixels is inside the scan's pixel budget, but the kernel
    # over 25 sites (78 MiB) is refused before anything is allocated.
    with pytest.raises(ValueError, match="MiB budget"):
        build_forward(fm_5x5, x_range=(0.0, 12.0), y_range=(0.0, 12.0),
                      step=0.01875, height=4.0, mode="exchange")
    with pytest.raises(ValueError, match="pixel budget"):
        build_forward(fm_5x5, x_range=(0.0, 12.0), y_range=(0.0, 12.0),
                      step=1e-6, height=4.0, mode="exchange")
    for step in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="step"):
            build_forward(fm_5x5, x_range=(0.0, 12.0), y_range=(0.0, 12.0),
                          step=step, height=4.0, mode="exchange")


# ------------------------------------------------------------- conditioning


def test_exchange_kernel_conditioning_frozen(fm_5x5):
    rep = conditioning_report(build_forward(fm_5x5, height=4.0,
                                            mode="exchange", **GRID))
    assert rep.sigma_max == pytest.approx(819.177897, rel=1e-6)
    assert rep.sigma_min == pytest.approx(347.697714, rel=1e-6)
    assert rep.cond == pytest.approx(2.35600599, rel=1e-6)
    assert not rep.rank_deficient


def test_dipolar_kernel_far_field_rank_deficient(fm_5x5):
    rep = conditioning_report(build_forward(fm_5x5, height=100.0,
                                            mode="dipolar", **GRID))
    # Individual site kernels are numerically indistinguishable at 25 x
    # the lattice constant: the singular spectrum collapses.
    assert rep.rank_deficient
    assert rep.cond > 1e6
    # The near-null witness certifies non-uniqueness: a unit moment
    # pattern the data cannot see.
    fwd = build_forward(fm_5x5, height=100.0, mode="dipolar", **GRID)
    v = rep.near_null_vector
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(fwd.a @ v) / rep.sigma_max < 1e-3


def test_identity_kernel_cond_one():
    rep = conditioning_report(np.eye(7))
    assert rep.cond == pytest.approx(1.0, abs=1e-12)
    assert rep.sigma_max == pytest.approx(1.0, abs=1e-12)


def test_dipolar_cond_is_finite_svd_ratio(fm_5x5):
    # The SVD resolves sigma_min below sqrt(eps) sigma_max, where the Gram
    # route underflowed to cond = inf.
    a = build_forward(fm_5x5, height=100.0, mode="dipolar", **GRID).a
    rep = conditioning_report(a)
    sv = np.linalg.svd(a, compute_uv=False)
    assert np.isfinite(rep.cond)
    assert rep.cond == pytest.approx(sv[0] / sv[-1], rel=1e-6)
    assert rep.sigma_max == pytest.approx(sv[0], rel=1e-12)


def test_fewer_pixels_than_sites_is_rank_deficient(fm_5x5):
    # One pixel cannot see 25 sites: the report names a null vector of
    # the single row and an infinite condition number.
    fwd = build_forward(fm_5x5, x_range=(6.0, 6.0), y_range=(6.0, 6.0),
                        step=1.0, height=4.0, mode="exchange")
    rep = conditioning_report(fwd)
    assert rep.sigma_min == 0.0 and rep.cond == np.inf and rep.rank_deficient
    assert rep.sigma_max == pytest.approx(np.linalg.norm(fwd.a), rel=1e-12)
    assert abs(fwd.a @ rep.near_null_vector).max() < 1e-12 * rep.sigma_max


def test_duplicated_rows_leave_cond_invariant(fm_5x5):
    a = build_forward(fm_5x5, height=4.0, mode="exchange", **GRID).a
    rep1 = conditioning_report(a)
    rep2 = conditioning_report(np.vstack([a, a]))
    # Stacking duplicates scales every singular value by sqrt(2).
    assert rep2.cond == pytest.approx(rep1.cond, rel=1e-6)
    assert rep2.sigma_max == pytest.approx(np.sqrt(2) * rep1.sigma_max, rel=1e-9)


# ---------------------------------------------------------------- inversion


def test_neel_recovery_noiseless(neel_5x5):
    fwd = build_forward(neel_5x5, height=4.0, mode="exchange", **GRID)
    m_true = neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2]
    y = fwd.a @ m_true
    res = solve_tikhonov(fwd, y, lam=1e-6)
    assert np.array_equal(np.sign(res.m_z), np.sign(m_true))
    assert np.max(np.abs(res.m_z - m_true)) < 1e-6
    assert res.residual_norm < 1e-6


def test_unregularized_well_posed_recovery(neel_5x5):
    # The 4 A exchange kernel is well conditioned: lam = 0 inverts it.
    fwd = build_forward(neel_5x5, height=4.0, mode="exchange", **GRID)
    m_true = neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2]
    res = solve_tikhonov(fwd, fwd.a @ m_true, lam=0.0)
    assert np.max(np.abs(res.m_z - m_true)) / np.max(np.abs(m_true)) < 1e-8


def test_solution_matches_dense_normal_equations(fm_5x5, rng):
    fwd = build_forward(fm_5x5, height=4.0, mode="exchange", **GRID)
    y = rng.normal(size=fwd.a.shape[0])
    lam = 1e-3
    res = solve_tikhonov(fwd, y, lam)
    dense = np.linalg.solve(fwd.a.T @ fwd.a + lam * np.eye(25), fwd.a.T @ y)
    assert np.max(np.abs(res.m_z - dense)) < 1e-9
    # The solve is deterministic: rerun is bit-identical.
    res2 = solve_tikhonov(fwd, y, lam)
    assert np.array_equal(res.m_z, res2.m_z)


def test_zero_data_zero_solution(fm_5x5):
    fwd = build_forward(fm_5x5, height=4.0, mode="exchange", **GRID)
    res = solve_tikhonov(fwd, np.zeros(fwd.a.shape[0]), lam=1e-6)
    assert np.all(res.m_z == 0.0)


def test_recovery_degrades_monotonically_with_height(neel_5x5):
    errs = []
    for h in (4.0, 6.0, 8.0, 10.0):
        fwd = build_forward(neel_5x5, height=h, mode="exchange", **GRID)
        m_true = neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2]
        res = solve_tikhonov(fwd, fwd.a @ m_true, lam=1e-8)
        errs.append(np.linalg.norm(res.m_z - m_true) / np.linalg.norm(m_true))
    assert errs == sorted(errs)
    assert errs[0] < 1e-10       # contact-regime kernel inverts exactly
    assert errs[-1] > 0.5        # far-field exchange kernel sees nothing


def test_rank_deficient_unregularized_warns(fm_5x5):
    fwd = build_forward(fm_5x5, height=100.0, mode="dipolar", **GRID)
    y = fwd.a @ np.ones(25)
    with pytest.warns(UserWarning):
        res = solve_tikhonov(fwd, y, lam=0.0)
    assert np.all(np.isfinite(res.m_z))


def test_negative_lam_rejected(fm_5x5):
    fwd = build_forward(fm_5x5, height=4.0, mode="exchange", **GRID)
    with pytest.raises(ValueError):
        solve_tikhonov(fwd, np.zeros(fwd.a.shape[0]), lam=-1.0)


def test_lcurve_monotone_tradeoff(neel_5x5, rng):
    fwd = build_forward(neel_5x5, height=4.0, mode="exchange", **GRID)
    m_true = neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2]
    y = fwd.a @ m_true + rng.normal(scale=1e-3, size=fwd.a.shape[0])
    lambdas = [1e-8, 1e-4, 1e0, 1e4, 1e8]
    rows = lcurve(fwd, y, lambdas)
    assert [r[0] for r in rows] == lambdas
    residuals = [r[1] for r in rows]
    norms = [r[2] for r in rows]
    assert all(np.diff(residuals) >= 0)  # residual grows with lam
    assert all(np.diff(norms) <= 0)      # solution norm shrinks with lam


def _filter_factor_residual(a, y, lam):
    """Oracle: the Tikhonov residual from a full SVD, ||diag(f) U^T y||
    with f = lam / (s^2 + lam) and f = 1 beyond the rank."""
    u, s, _ = np.linalg.svd(a)
    f = np.ones(u.shape[0])
    if lam == 0.0:
        f[: s.size] = s <= 1e-12 * s[0]
    else:
        f[: s.size] = lam / (s * s + lam)
    return np.linalg.norm(f * (u.T @ y))


@pytest.mark.parametrize("mode, height", [("exchange", 4.0), ("both", 4.0),
                                          ("dipolar", 60.0)])
def test_residual_norm_is_cancellation_free(neel_5x5, rng, mode, height):
    # ||A m - y|| is all cancellation once the fit is good; the reported
    # residual must match the filter-factor form, noiseless or not.
    fwd = build_forward(neel_5x5, height=height, mode=mode, **GRID)
    clean = fwd.a @ (neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2])
    noisy = clean + rng.normal(scale=1e-6 * np.abs(clean).max(), size=clean.size)
    lambdas = [0.0, 1e-12, 1e-8, 1e-4, 1.0, 1e4]
    for y, lams in ((clean, [1e-6]), (noisy, lambdas)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # lam = 0 on the dipolar kernel
            rows = lcurve(fwd, y, lams)
        for lam, (_, residual, _) in zip(lams, rows):
            want = _filter_factor_residual(fwd.a, y, lam)
            assert residual == pytest.approx(want, rel=1e-6), (lam, residual, want)
        assert all(np.diff([r[1] for r in rows]) >= 0)


def test_lcurve_rows_equal_per_lam_solves(neel_5x5, rng):
    for height, mode in ((4.0, "exchange"), (100.0, "dipolar")):
        fwd = build_forward(neel_5x5, height=height, mode=mode, **GRID)
        m_true = neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2]
        y = fwd.a @ m_true + rng.normal(scale=1e-9, size=fwd.a.shape[0])
        lambdas = [0.0, 1e-14, 1e-8, 1e-2, 1e3]
        rows = lcurve(fwd, y, lambdas)
        for lam, row in zip(lambdas, rows):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = solve_tikhonov(fwd, y, lam)
            assert row == (lam, res.residual_norm, float(np.linalg.norm(res.m_z)))


def test_unregularized_solve_matches_lstsq(neel_5x5):
    m_true = neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2]
    fwd = build_forward(neel_5x5, height=4.0, mode="exchange", **GRID)
    y = fwd.a @ m_true
    res = solve_tikhonov(fwd, y, lam=0.0)
    ref = np.linalg.lstsq(fwd.a, y, rcond=1e-12)[0]
    assert np.linalg.norm(res.m_z - ref) <= 1e-9 * np.linalg.norm(ref)

    # At 100 A the minimum-norm solution keeps singular values down to
    # about 6e-12 sigma_max, so rounding in y alone moves either solver's
    # m by up to eps sigma_max / s_kept (~3e-5 relative).  The fitted data
    # and the numerical rank are what both must agree on.
    fwd = build_forward(neel_5x5, height=100.0, mode="dipolar", **GRID)
    y = fwd.a @ m_true
    with pytest.warns(UserWarning):
        res = solve_tikhonov(fwd, y, lam=0.0)
    ref, _, rank, sv = np.linalg.lstsq(fwd.a, y, rcond=1e-12)
    assert np.linalg.norm(fwd.a @ (res.m_z - ref)) <= 1e-9 * np.linalg.norm(y)
    kept = sv[sv > 1e-12 * sv[0]]
    assert rank == kept.size < 25
    bound = 10 * np.finfo(float).eps * sv[0] / kept[-1]
    assert np.linalg.norm(res.m_z - ref) <= bound * np.linalg.norm(ref)


# ------------------------------------------------------------ factorization

ORACLE_GRIDS = {
    "tall": GRID,
    "square": dict(x_range=(0.0, 12.0), y_range=(0.0, 12.0), step=3.0),
    "wide": dict(x_range=(6.0, 6.0), y_range=(6.0, 6.0), step=1.0),
}


@pytest.mark.parametrize("grid", sorted(ORACLE_GRIDS))
@pytest.mark.parametrize("height", [4.0, 60.0, 100.0])
@pytest.mark.parametrize("mode", ["exchange", "dipolar", "both"])
def test_qr_first_matches_thin_svd_oracle(neel_5x5, rng, mode, height, grid):
    # The QR-first factors must give the solution and report of
    # _factor's thin SVD of the whole kernel.  m_z agrees to 1e-12 of its
    # largest entry, plus the first-order effect of rounding in y,
    # eps ||y|| times the largest filter gain, which dominates only for
    # lam = 0 on ill-conditioned kernels (measured up to 9e-7 relative
    # at 100 A dipolar, 3e-11 at 100 A exchange).
    fwd = build_forward(neel_5x5, height=height, mode=mode, **ORACLE_GRIDS[grid])
    ref_report = conditioning_report(fwd.a)
    clean = fwd.a @ (neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2])
    noisy = clean + rng.normal(scale=1e-6 * np.abs(clean).max(), size=clean.size)
    eps = np.finfo(float).eps
    u, s, vt = reconstruct._factor(fwd.a)
    for y in (clean, noisy):
        c = u.T @ y
        oracle = (s, vt, c, float(np.linalg.norm(y - u @ c)))
        for lam in (0.0, 1e-12, 1e-6, 1.0):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                res = solve_tikhonov(fwd, y, lam)
            assert bool(caught) == (lam == 0.0 and ref_report.rank_deficient)
            m_ref, _ = reconstruct._filtered(oracle, lam)
            if lam == 0.0:
                kept = s[s > 1e-12 * s[0]]
                gain = 1.0 / kept[-1]
            else:
                gain = np.max(s / (s * s + lam))
            tol = 1e-12 * np.abs(m_ref).max() + 10 * eps * np.linalg.norm(y) * gain
            assert np.abs(res.m_z - m_ref).max() <= tol, (lam, tol)
        rep = res.report
        assert rep.sigma_max == pytest.approx(ref_report.sigma_max, rel=1e-12)
        assert rep.rank_deficient == ref_report.rank_deficient
        if ref_report.cond < 1e12:
            assert rep.cond == pytest.approx(ref_report.cond, rel=1e-6)
        if ref_report.rank_deficient:
            assert np.linalg.norm(fwd.a @ rep.near_null_vector) < 1e-12 * rep.sigma_max


@pytest.mark.parametrize("leaves", [[145, 144], [97, 97, 95], [27] * 10 + [19]],
                         ids=["2", "3", "11"])
@pytest.mark.parametrize("height", [4.0, 60.0, 100.0])
@pytest.mark.parametrize("mode", ["exchange", "dipolar", "both"])
def test_tree_qr_matches_thin_svd_oracle(neel_5x5, rng, monkeypatch, mode, height,
                                         leaves):
    # A smaller leaf budget splits the tall grid's 289 pixels into several
    # leaves, the last one short, and the tree must still give the oracle's
    # report, residual and m_z.  At lam = 0 on a rank-deficient kernel m_z
    # is as far from the oracle as rounding in y moves any solver (up to
    # 180x the one-leaf tolerance, which holds there only because the
    # oracle's SVD runs the same dgeqrf first), so it gets the bounds that
    # test_unregularized_solve_matches_lstsq puts on lstsq instead.  A gate
    # of 0 refuses every kernel the Gram path would take, so the tree runs.
    fwd = build_forward(neel_5x5, height=height, mode=mode, **GRID)
    n = fwd.a.shape[1]
    monkeypatch.setattr(reconstruct, "_GRAM_COND", 0.0)
    monkeypatch.setattr(reconstruct, "_LEAF_BYTES", 8 * (n + 1) * leaves[0])
    qr, shapes = np.linalg.qr, []
    monkeypatch.setattr(np.linalg, "qr",
                        lambda x, mode: shapes.append(x.shape) or qr(x, mode=mode))
    ref_report = conditioning_report(fwd.a)
    clean = fwd.a @ (neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2])
    noisy = clean + rng.normal(scale=1e-6 * np.abs(clean).max(), size=clean.size)
    eps = np.finfo(float).eps
    u, s, vt = reconstruct._factor(fwd.a)
    kept = s[s > 1e-12 * s[0]]
    for y in (clean, noisy):
        c = u.T @ y
        oracle = (s, vt, c, float(np.linalg.norm(y - u @ c)))
        for lam in (0.0, 1e-12, 1e-6, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # lam = 0 on a rank-deficient kernel
                res = solve_tikhonov(fwd, y, lam)
            m_ref, _ = reconstruct._filtered(oracle, lam)
            want = _filter_factor_residual(fwd.a, y, lam)
            assert res.residual_norm == pytest.approx(want, rel=1e-6), (lam, want)
            if lam == 0.0 and ref_report.rank_deficient:
                fit = np.linalg.norm(fwd.a @ (res.m_z - m_ref))
                assert fit <= 1e-9 * np.linalg.norm(y)
                bound = 10 * eps * s[0] / kept[-1]
                assert np.linalg.norm(res.m_z - m_ref) <= bound * np.linalg.norm(m_ref)
                continue
            gain = 1.0 / kept[-1] if lam == 0.0 else np.max(s / (s * s + lam))
            tol = 1e-12 * np.abs(m_ref).max() + 10 * eps * np.linalg.norm(y) * gain
            assert np.abs(res.m_z - m_ref).max() <= tol, (lam, tol)
    assert [rows for rows, _ in shapes[:len(leaves)]] == leaves
    assert shapes[len(leaves)] == (sum(min(rows, n + 1) for rows in leaves), n + 1)
    rep = res.report
    assert rep.sigma_max == pytest.approx(ref_report.sigma_max, rel=1e-12)
    assert rep.rank_deficient == ref_report.rank_deficient
    if ref_report.cond < 1e12:
        assert rep.cond == pytest.approx(ref_report.cond, rel=1e-6)
    if ref_report.rank_deficient:
        assert np.linalg.norm(fwd.a @ rep.near_null_vector) < 1e-12 * rep.sigma_max


def test_tree_qr_makes_no_kernel_sized_copy(rng, monkeypatch):
    # A random kernel of the invert benchmark's shape, Fortran-ordered as
    # build_forward returns it, spans five leaves; the projection's traced
    # peak stays below the kernel's own bytes.  The kernel is well
    # conditioned, so a gate of 0 keeps it off the Gram path.
    monkeypatch.setattr(reconstruct, "_GRAM_COND", 0.0)
    a = rng.standard_normal((196, 6241)).T
    y = rng.standard_normal(a.shape[0])
    assert a.nbytes > 4 * reconstruct._LEAF_BYTES
    tracemalloc.start()
    try:
        reconstruct._project(a, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes, (peak, a.nbytes)


def _path_spy(monkeypatch):
    """Names of the projection paths taken, from calls to np.linalg.eigh
    (the Gram path) and np.linalg.qr (the tree QR)."""
    taken = []
    for name, path in (("eigh", "gram"), ("qr", "tree")):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, real=real, path=path,
                            **kw: taken.append(path) or real(*args, **kw))
    return taken


def _outside_bound(factors, y):
    """Rounding-level bound on the Gram path's explicit ||y - A x||:
    64 u (||y|| + sigma_max ||x||) for the lam = 0 solution x."""
    x, _ = reconstruct._filtered(factors, 0.0)
    u = np.finfo(float).eps / 2
    return 64 * u * (np.linalg.norm(y) + factors[0][0] * np.linalg.norm(x))


@pytest.mark.parametrize("mode", ["exchange", "dipolar", "both"])
def test_gram_path_matches_thin_svd_oracle(neel_5x5, rng, monkeypatch, mode):
    # The 4 A kernels have cond 2.3-9.6, inside the gate, so they take the
    # Gram path alone and must meet test_qr_first_matches_thin_svd_oracle's
    # tolerances; the outside norm is an explicit residual, so it gets a
    # rounding-level bound instead of dgeqrf's bits.
    fwd = build_forward(neel_5x5, height=4.0, mode=mode, **GRID)
    taken = _path_spy(monkeypatch)
    clean = fwd.a @ (neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2])
    noisy = clean + rng.normal(scale=1e-6 * np.abs(clean).max(), size=clean.size)
    eps = np.finfo(float).eps
    u, s, vt = reconstruct._factor(fwd.a)
    for y in (clean, noisy):
        c = u.T @ y
        oracle = (s, vt, c, float(np.linalg.norm(y - u @ c)))
        factors = reconstruct._project(fwd.a, y)
        assert taken == ["gram"]
        taken.clear()
        assert abs(factors[3] - oracle[3]) <= _outside_bound(factors, y)
        for lam in (0.0, 1e-12, 1e-6, 1.0):
            m, _ = reconstruct._filtered(factors, lam)
            m_ref, _ = reconstruct._filtered(oracle, lam)
            gain = 1.0 / s[-1] if lam == 0.0 else np.max(s / (s * s + lam))
            tol = 1e-12 * np.abs(m_ref).max() + 10 * eps * np.linalg.norm(y) * gain
            assert np.abs(m - m_ref).max() <= tol, (lam, tol)
        rep, ref_report = reconstruct._report(*factors[:2]), conditioning_report(fwd.a)
        assert rep.sigma_max == pytest.approx(ref_report.sigma_max, rel=1e-12)
        assert rep.cond == pytest.approx(ref_report.cond, rel=1e-6)
        assert not rep.rank_deficient


@pytest.mark.parametrize("cond, path", [(29.0, ["gram"]), (31.0, ["gram", "tree"]),
                                        (1e8, ["tree"])])
def test_gram_gate_takes_kernels_inside_it_only(rng, monkeypatch, cond, path):
    # A = Q diag(s) V^T with a known cond: just inside the gate the Gram
    # path meets the oracle tolerance; just outside, the eigenvalue ratio
    # sends it to the tree, and far outside the Cholesky diagonal does so
    # before any eigensolve.
    assert 29.0 < reconstruct._GRAM_COND < 31.0
    m, n = 400, 20
    q = np.linalg.qr(rng.standard_normal((m, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = np.asfortranarray((q * np.geomspace(cond, 1.0, n)) @ v.T)
    y = a @ rng.standard_normal(n) + 1e-3 * rng.standard_normal(m)
    u, s, vt = reconstruct._factor(a)
    c = u.T @ y
    oracle = (s, vt, c, float(np.linalg.norm(y - u @ c)))
    taken = _path_spy(monkeypatch)
    factors = reconstruct._project(a, y)
    assert taken == path
    if path == ["gram"]:
        m_ref, _ = reconstruct._filtered(oracle, 0.0)
        eps = np.finfo(float).eps
        tol = 1e-12 * np.abs(m_ref).max() + 10 * eps * np.linalg.norm(y) / s[-1]
        assert np.abs(reconstruct._filtered(factors, 0.0)[0] - m_ref).max() <= tol
        assert factors[0] == pytest.approx(s, rel=1e-12)


def test_gram_path_is_bit_identical_at_any_address(rng, monkeypatch):
    # OpenBLAS kernels may round by the operands' alignment; copies of one
    # kernel at nine 8-byte offsets of a buffer must give its bits, and a
    # C-ordered copy its factors to rounding.
    a = rng.standard_normal((196, 6241)).T
    y = rng.standard_normal(a.shape[0])
    taken = _path_spy(monkeypatch)
    ref = reconstruct._project(a, y)
    for offset in range(9):
        buf = np.empty(a.size + offset)
        copy = buf[offset:].reshape(a.T.shape)
        copy[...] = a.T
        got = reconstruct._project(copy.T, y)
        assert all(np.array_equal(p, q) for p, q in zip(got, ref)), offset
    got = reconstruct._project(np.ascontiguousarray(a), y)
    assert taken == ["gram"] * 11
    m, m_ref = (reconstruct._filtered(f, 1e-6)[0] for f in (got, ref))
    assert np.abs(m - m_ref).max() <= 1e-13 * np.abs(m_ref).max()
    assert got[0] == pytest.approx(ref[0], rel=1e-14)
    assert got[3] == pytest.approx(ref[3], rel=1e-12)


def test_gram_path_makes_no_kernel_sized_copy(rng, monkeypatch):
    # The kernel of test_tree_qr_makes_no_kernel_sized_copy, on the Gram
    # path: A^T A, its factors and a few pixel vectors stay below the
    # kernel's own bytes.
    a = rng.standard_normal((196, 6241)).T
    y = rng.standard_normal(a.shape[0])
    taken = _path_spy(monkeypatch)
    tracemalloc.start()
    try:
        reconstruct._project(a, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["gram"]
    assert peak < a.nbytes, (peak, a.nbytes)


def test_gram_refusal_of_a_dipolar_kernel_forms_no_sites_gram(neel_5x5, monkeypatch):
    # cond(A) >= cond(A_S) for any columns S, so the first 8 columns refuse
    # the ill-conditioned 100 A dipolar kernel before A^T A is formed; the
    # 4 A exchange kernel goes on to the Cholesky of its full Gram matrix.
    shapes = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda g: shapes.append(g.shape) or cholesky(g))
    moments = neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2]
    n = neel_5x5.n_sites
    for mode, height, want in (("dipolar", 100.0, []), ("exchange", 4.0, [(n, n)])):
        fwd = build_forward(neel_5x5, height=height, mode=mode, **GRID)
        reconstruct._project(fwd.a, fwd.a @ moments)
        assert shapes == want, mode
        shapes.clear()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observation_rejected(fm_5x5, bad):
    fwd = build_forward(fm_5x5, height=4.0, mode="exchange", **GRID)
    y = np.zeros(fwd.a.shape[0])
    y[[3, 7, 11]] = bad
    with pytest.raises(ValueError, match="3 non-finite"):
        solve_tikhonov(fwd, y, lam=1e-6)
    with pytest.raises(ValueError, match="3 non-finite"):
        lcurve(fwd, y, [1e-6, 1.0])


def _counting_factor(monkeypatch):
    calls = []
    project = reconstruct._project

    def counted(a, y):
        calls.append(y.copy())
        return project(a, y)

    monkeypatch.setattr(reconstruct, "_project", counted)
    return calls


def test_solve_and_lcurve_factor_once(neel_5x5, rng, monkeypatch):
    calls = _counting_factor(monkeypatch)
    fwd = build_forward(neel_5x5, height=4.0, mode="exchange", **GRID)
    y = fwd.a @ (neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2])
    lambdas = [1e-8, 1e-6, 1.0]
    res = solve_tikhonov(fwd, y, 1e-6)
    rows = lcurve(fwd, y, lambdas)
    assert len(calls) == 1
    assert rows[1] == (1e-6, res.residual_norm, float(np.linalg.norm(res.m_z)))

    # A new observation is factored again, and the rows are those of an
    # operator that never saw the first one.
    y2 = y + rng.normal(scale=1e-3, size=y.size)
    rows2 = lcurve(fwd, y2, lambdas)
    assert len(calls) == 2
    fresh = build_forward(neel_5x5, height=4.0, mode="exchange", **GRID)
    assert rows2 == lcurve(fresh, y2, lambdas)


def test_memo_copies_the_observation(neel_5x5, monkeypatch):
    calls = _counting_factor(monkeypatch)
    fwd = build_forward(neel_5x5, height=4.0, mode="exchange", **GRID)
    y = fwd.a @ (neel_5x5.spin_mag * neel_5x5.spin_dirs[:, 2])
    solve_tikhonov(fwd, y, 1e-6)
    # Had the operator kept a reference to y, the edited y would match
    # it and the old factors would be reused.
    y *= 2.0
    res = solve_tikhonov(fwd, y, 1e-6)
    assert len(calls) == 2
    fresh = build_forward(neel_5x5, height=4.0, mode="exchange", **GRID)
    assert np.array_equal(res.m_z, solve_tikhonov(fresh, y, 1e-6).m_z)


def test_forward_kernel_is_read_only(fm_5x5):
    # Either path returns the transpose of a read-only (sites, pixels)
    # buffer: Fortran-ordered, so each column is contiguous for the QR.
    for path in (contextlib.nullcontext(), _dense_path()):
        with path:
            fwd = build_forward(fm_5x5, height=4.0, mode="exchange", **GRID)
        with pytest.raises(ValueError):
            fwd.a[0, 0] = 1.0
        assert fwd.a.flags.f_contiguous
        assert fwd.a.base is not None and not fwd.a.base.flags.writeable
