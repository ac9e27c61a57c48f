"""Forward kernels, conditioning analysis, and SVD Tikhonov inversion.

Frozen conditioning numbers (exchange kernel at 4 A over the 5x5
lattice, dipolar kernel at 100 A) come from an independent dense
eigenanalysis oracle run once and recorded here.
"""

import warnings

import numpy as np
import pytest

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
